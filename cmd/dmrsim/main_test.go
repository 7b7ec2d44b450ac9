package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// A bad configuration exits 2 with one line on stderr before anything
// runs: never a panic's goroutine dump, never a silent run.
func TestBadConfigExitsTwo(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "dmrsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"-bootfail", "1.5"},
		{"-migrate"},
		{"-powercap", "-100"},
		{"-bootfail", "0.2"},
		{"-fastnodes", "30", "-nodes", "20"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin, args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			var exit *exec.ExitError
			if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("exit: %v, want status 2\nstderr:\n%s", err, &stderr)
			}
			if msg := stderr.String(); strings.Count(msg, "\n") != 1 || strings.Contains(msg, "goroutine") {
				t.Fatalf("stderr is not one line:\n%s", msg)
			}
			if stdout.Len() != 0 {
				t.Fatalf("rejected run printed:\n%s", &stdout)
			}
		})
	}
}
