package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// An unknown -exp exits 2 with one line naming the valid experiments,
// having run nothing.
func TestUnknownExperimentExitsTwo(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "experiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-exp", "nosuch")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	var exit *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit: %v, want status 2\nstderr:\n%s", err, &stderr)
	}
	msg := stderr.String()
	if strings.Count(msg, "\n") != 1 || stdout.Len() != 0 {
		t.Fatalf("want one stderr line and no output, got stderr:\n%s\nstdout:\n%s", msg, &stdout)
	}
	for _, name := range []string{"all", "fig10", "fig11", "table2", "energy", "ablations"} {
		if !strings.Contains(msg, name) {
			t.Errorf("error does not name %q: %s", name, msg)
		}
	}
}
