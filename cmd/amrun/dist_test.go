package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// buildAmrun compiles this command once per test run and returns the
// binary path — the differential tests below exercise the shipped CLI,
// not a reimplementation of it.
var buildAmrun = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "amrun-dist-test")
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "amrun")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build: %v\n%s", err, out)
	}
	return bin, nil
})

func amrunBin(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and spawns amrun processes")
	}
	bin, err := buildAmrun()
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// run executes the binary and returns stdout; stderr is returned
// separately so -timing output never contaminates the byte comparison.
func run(t *testing.T, bin string, args ...string) (stdout, stderr string) {
	t.Helper()
	var so, se strings.Builder
	cmd := exec.Command(bin, args...)
	cmd.Stdout = &so
	cmd.Stderr = &se
	if err := cmd.Run(); err != nil {
		t.Fatalf("amrun %s: %v\nstderr:\n%s", strings.Join(args, " "), err, se.String())
	}
	return so.String(), se.String()
}

// The quick differential suite at the CLI level: flag-built sweeps and the
// committed example scenarios (checkpoint-free ones, trial counts lowered
// via the -trials override) must render byte-identically with and without
// -distribute, in every output format.
func TestDistributeByteIdentical(t *testing.T) {
	bin := amrunBin(t)

	type tc struct {
		name string
		args []string
	}
	cases := []tc{
		{"dag-private", []string{"-protocol", "dag", "-n", "10", "-t", "4", "-lambda", "1", "-k", "21",
			"-attack", "private-chain", "-trials", "24", "-sweep", "lambda=0.5,1,2",
			"-metrics", "ok,validity,decide-time,byz-prefix-share"}},
		{"chain-tiebreak", []string{"-protocol", "chain", "-n", "8", "-t", "3", "-lambda", "0.5", "-k", "15",
			"-attack", "tiebreak", "-trials", "18", "-sweep", "tiebreak=random,adversarial"}},
		{"sync-split", []string{"-protocol", "sync", "-n", "7", "-t", "2", "-inputs", "split:3",
			"-trials", "12", "-metrics", "ok,agreement,duration"}},
		{"spec-crashes", []string{"-spec", "../../examples/scenarios/crashes-asynchrony.json", "-trials", "6"}},
		{"spec-equivocation", []string{"-spec", "../../examples/scenarios/equivocation-confirm.json", "-trials", "6"}},
		{"spec-windowed", []string{"-spec", "../../examples/scenarios/windowed-long-horizon.json", "-trials", "4"}},
	}
	for _, c := range cases {
		for _, format := range []string{"text", "json", "csv"} {
			args := append(append([]string{}, c.args...), "-format", format)
			local, _ := run(t, bin, args...)
			dist, _ := run(t, bin, append(args, "-distribute", "3")...)
			if local != dist {
				t.Errorf("%s (%s): -distribute 3 output differs from single-process\nlocal:\n%s\ndist:\n%s",
					c.name, format, local, dist)
			}
		}
	}
}

// A warm cache must serve >= 90% of leases (here: all) and leave the
// bytes untouched.
func TestDistributeWarmCache(t *testing.T) {
	bin := amrunBin(t)
	cacheDir := t.TempDir()
	args := []string{"-protocol", "dag", "-n", "10", "-t", "4", "-lambda", "1", "-k", "21",
		"-attack", "private-chain", "-trials", "40", "-format", "json"}
	local, _ := run(t, bin, append(args, "-sweep", "lambda=0.5,1")...)

	cold, coldErr := run(t, bin, append(args, "-sweep", "lambda=0.5,1",
		"-distribute", "2", "-cache", cacheDir, "-timing")...)
	if cold != local {
		t.Fatalf("cold distributed run differs from local:\n%s\nvs\n%s", cold, local)
	}
	if !strings.Contains(coldErr, "cache-hits=0") {
		t.Fatalf("cold run reported cache hits: %s", coldErr)
	}

	warm, warmErr := run(t, bin, append(args, "-sweep", "lambda=0.5,1",
		"-distribute", "2", "-cache", cacheDir, "-timing")...)
	if warm != local {
		t.Fatalf("warm distributed run differs from local:\n%s\nvs\n%s", warm, local)
	}
	stats := parseTiming(t, warmErr)
	if stats["leases"] == 0 || stats["cache-hits"]*10 < stats["leases"]*9 {
		t.Fatalf("warm run served %d/%d leases from cache, want >= 90%%: %s",
			stats["cache-hits"], stats["leases"], warmErr)
	}
}

// Killing a worker process mid-sweep must not change a byte of output.
// The victim is found via the coordinator's own children; the sweep is
// big enough that leases are still in flight when the kill lands.
func TestDistributeSurvivesKilledWorker(t *testing.T) {
	bin := amrunBin(t)
	args := []string{"-protocol", "dag", "-n", "12", "-t", "5", "-lambda", "1", "-k", "31",
		"-attack", "private-chain", "-trials", "64", "-sweep", "lambda=0.5,1,2",
		"-metrics", "ok,validity,decide-time", "-format", "json"}
	local, _ := run(t, bin, args...)

	var so, se strings.Builder
	cmd := exec.Command(bin, append(args, "-distribute", "3", "-lease-timeout", "10s", "-timing")...)
	cmd.Stdout = &so
	cmd.Stderr = &se
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill the first spawned worker (a child amrun -amworker) shortly after
	// dispatch begins.
	go func() {
		// Let the spawn handshakes finish first: a worker killed before its
		// hello would fail the spawn itself rather than exercise reassignment.
		time.Sleep(25 * time.Millisecond)
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			out, err := exec.Command("pgrep", "-P", fmt.Sprint(cmd.Process.Pid)).Output()
			if err == nil {
				if kids := strings.Fields(string(out)); len(kids) > 0 {
					exec.Command("kill", "-KILL", kids[0]).Run()
					return
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	if err := cmd.Wait(); err != nil {
		t.Fatalf("distributed run with killed worker failed: %v\nstderr:\n%s", err, se.String())
	}
	if so.String() != local {
		t.Fatalf("killed worker changed the output:\nlocal:\n%s\ndist:\n%s", local, so.String())
	}
	t.Logf("timing: %s", strings.TrimSpace(se.String()))
}

// Checkpointed sweeps must be refused in distributed mode with a clear
// error, not silently produce different bytes.
func TestDistributeRejectsCheckpoint(t *testing.T) {
	bin := amrunBin(t)
	cmd := exec.Command(bin, "-protocol", "chain", "-n", "8", "-t", "2", "-lambda", "1", "-k", "15",
		"-trials", "4", "-sweep", "confirm=0,5", "-checkpoint", "-distribute", "2")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("checkpointed distributed run succeeded:\n%s", out)
	}
	if !strings.Contains(string(out), "checkpoint") {
		t.Fatalf("error does not mention checkpoints: %s", out)
	}
}

// Duplicate sweep axes are rejected whether they come from flags or from
// a spec file plus flags.
func TestDuplicateSweepAxisRejected(t *testing.T) {
	bin := amrunBin(t)
	cmd := exec.Command(bin, "-protocol", "dag", "-n", "8", "-lambda", "1", "-k", "15",
		"-trials", "2", "-sweep", "lambda=0.5,1", "-sweep", "lambda=2,4")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("duplicate -sweep axis accepted:\n%s", out)
	}
	if !strings.Contains(string(out), "twice") {
		t.Fatalf("error does not flag the duplicate axis: %s", out)
	}
}

// parseTiming extracts the k=v counters from the -timing stderr line.
func parseTiming(t *testing.T, line string) map[string]int {
	t.Helper()
	out := map[string]int{}
	for _, f := range strings.Fields(line) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(v, "%d", &n); err == nil {
			out[k] = n
		}
	}
	return out
}

// A failed write must fail the run: the -o file in every sweep format,
// and stdout for the single-run report and the bare -trials summary line.
func TestOutputWriteErrorExits(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	bin := amrunBin(t)
	run := []string{"-protocol", "chain", "-n", "8", "-t", "2", "-lambda", "1", "-k", "15"}
	type tc struct {
		name   string
		args   []string
		stdout bool // write to stdout, pointed at /dev/full, rather than -o
	}
	cases := []tc{
		{"single run", run, true},
		{"bare -trials", append(run, "-trials", "3"), true},
		{"-list", []string{"-list"}, true},
	}
	for _, format := range []string{"text", "md", "json", "csv"} {
		args := append(run, "-trials", "2", "-metrics", "ok", "-format", format, "-o", "/dev/full")
		cases = append(cases, tc{"-format " + format, args, false})
	}
	for _, c := range cases {
		cmd := exec.Command(bin, c.args...)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		if c.stdout {
			full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer full.Close()
			cmd.Stdout = full
		}
		err := cmd.Run()
		if code := cmd.ProcessState.ExitCode(); err == nil || code != 1 {
			t.Fatalf("%s: exit %d (%v), want 1\n%s", c.name, code, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "no space left") {
			t.Fatalf("%s: error does not name the failed write: %s", c.name, stderr.String())
		}
	}
}
