package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// A failed write to stdout must fail the run with exit 1 naming the
// error, in every output mode: the family table (text and md), the DOT
// graph and the retry-vote schedule, whose own verdict (exit 2 at n=2)
// must not mask the lost output.
func TestOutputWriteErrorExits(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns amcheck")
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	bin := filepath.Join(t.TempDir(), "amcheck")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"-n", "2"},
		{"-n", "2", "-format", "md"},
		{"-n", "2", "-dot", "5"},
		{"-n", "2", "-retry"},
	} {
		full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(bin, args...)
		var stderr strings.Builder
		cmd.Stdout, cmd.Stderr = full, &stderr
		err = cmd.Run()
		full.Close()
		if code := cmd.ProcessState.ExitCode(); err == nil || code != 1 {
			t.Fatalf("amcheck %s > /dev/full: exit %d (%v), want 1\n%s", strings.Join(args, " "), code, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "no space left") {
			t.Fatalf("amcheck %s: error does not name the failed write: %s", strings.Join(args, " "), stderr.String())
		}
	}
}
