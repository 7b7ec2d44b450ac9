package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// bin is the dmrsim binary TestMain builds once for every test.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dmrsim-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "dmrsim")
	code := 1
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// A bad configuration exits 2 with one line on stderr before anything
// runs: never a panic's goroutine dump, never a silent run.
func TestBadConfigExitsTwo(t *testing.T) {
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

// Every run meters energy: a run with no energy flag reports it too.
func TestDefaultRunReportsEnergy(t *testing.T) {
	out, err := exec.Command(bin, "-jobs", "5").CombinedOutput()
	if err != nil {
		t.Fatalf("dmrsim -jobs 5: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("cluster energy:")) {
		t.Fatalf("no energy line in the default run:\n%s", out)
	}
}
