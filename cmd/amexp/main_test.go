package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// A failed write to the -o file must fail the run, in every format: the
// text and md streams as well as the json and csv documents. So must a
// failed write of the -list listing to stdout.
func TestOutputWriteErrorExits(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns amexp")
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	bin := filepath.Join(t.TempDir(), "amexp")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, format := range []string{"text", "md", "json", "csv"} {
		cmd := exec.Command(bin, "-e", "E4", "-quick", "-format", format, "-o", "/dev/full")
		out, err := cmd.CombinedOutput()
		if code := cmd.ProcessState.ExitCode(); err == nil || code != 1 {
			t.Fatalf("-format %s -o /dev/full: exit %d (%v), want 1\n%s", format, code, err, out)
		}
		if !strings.Contains(string(out), "no space left") {
			t.Fatalf("-format %s: error does not name the failed write: %s", format, out)
		}
	}
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	cmd := exec.Command(bin, "-list")
	var stderr strings.Builder
	cmd.Stdout, cmd.Stderr = full, &stderr
	err = cmd.Run()
	if code := cmd.ProcessState.ExitCode(); err == nil || code != 1 {
		t.Fatalf("-list > /dev/full: exit %d (%v), want 1\n%s", code, err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "no space left") {
		t.Fatalf("-list: error does not name the failed write: %s", stderr.String())
	}
}
