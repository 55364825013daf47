package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// A failed write to stdout must fail the run with exit 1 naming the
// error, in every output mode: a drawn run, a drawn topology and the
// topology statistics.
func TestOutputWriteErrorExits(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns amdot")
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	bin := filepath.Join(t.TempDir(), "amdot")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"-protocol", "dag", "-n", "8", "-t", "2", "-lambda", "1", "-attack", "private-chain"},
		{"-protocol", "chain", "-n", "4", "-t", "1", "-k", "5"},
		{"-topology", "ring", "-n", "16"},
		{"-topology", "ring", "-n", "16", "-stats"},
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
			t.Fatalf("amdot %s > /dev/full: exit %d (%v), want 1\n%s", strings.Join(args, " "), code, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "no space left") {
			t.Fatalf("amdot %s: error does not name the failed write: %s", strings.Join(args, " "), stderr.String())
		}
	}
}
