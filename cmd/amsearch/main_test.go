package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/scenario"
	"repro/internal/search"
)

// buildAmsearch compiles this command once per test run — the tests
// below exercise the shipped CLI end to end, including worker spawning.
var buildAmsearch = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "amsearch-test")
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "amsearch")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build: %v\n%s", err, out)
	}
	return bin, nil
})

func amsearchBin(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and spawns amsearch processes")
	}
	bin, err := buildAmsearch()
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) (stdout string) {
	t.Helper()
	var so, se strings.Builder
	cmd := exec.Command(bin, args...)
	cmd.Stdout = &so
	cmd.Stderr = &se
	if err := cmd.Run(); err != nil {
		t.Fatalf("amsearch %s: %v\nstderr:\n%s", strings.Join(args, " "), err, se.String())
	}
	return so.String()
}

var searchArgs = []string{
	"-protocol", "chain", "-n", "9", "-t", "3", "-lambda", "0.5", "-k", "21",
	"-tiebreak", "adversarial", "-attack", "fork",
	"-budget", "120", "-rungs", "4,12", "-seed", "11", "-format", "json",
}

// The search trajectory is reproducible from the printed seed and does
// not depend on how the trials are executed: in-process, and sharded
// across two spawned worker processes, must yield the same JSON result
// (the distributed run pins -chunk so even the lease accounting agrees).
func TestSearchSeedReproducibleAndDistributeInvariant(t *testing.T) {
	bin := amsearchBin(t)
	local := run(t, bin, searchArgs...)
	again := run(t, bin, searchArgs...)
	if local != again {
		t.Fatal("same seed produced different search results")
	}
	// Lease accounting differs between execution shapes by design, so
	// compare the trajectory: everything up to the stats block.
	cut := func(s string) string {
		if i := strings.Index(s, "\"Stats\""); i >= 0 {
			return s[:i]
		}
		return s
	}
	dist := run(t, bin, append(append([]string{}, searchArgs...), "-distribute", "2", "-chunk", "4")...)
	if cut(local) != cut(dist) {
		t.Fatalf("search result depends on -distribute:\nlocal:\n%s\ndist:\n%s", local, dist)
	}
}

// -promote minimizes the winner to a single-seed spec; -replay on that
// file must reproduce (exit 0), and -replay on a spec that never
// disagrees must fail the build (exit 1).
func TestPromoteReplayRoundTrip(t *testing.T) {
	bin := amsearchBin(t)
	dir := t.TempDir()
	args := []string{
		"-protocol", "chain", "-n", "9", "-t", "4", "-lambda", "0.5", "-k", "41",
		"-tiebreak", "adversarial", "-attack", "fork",
		"-budget", "120", "-rungs", "4,16", "-seed", "1", "-promote", dir,
	}
	out := run(t, bin, args...)
	if !strings.Contains(out, "promoted: ") {
		t.Fatalf("no promotion line in output:\n%s", out)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("promoted files = %v, err %v; want exactly one", files, err)
	}
	if out := run(t, bin, "-replay", files[0]); !strings.Contains(out, "reproduce") {
		t.Fatalf("replay output: %s", out)
	}

	clean := filepath.Join(dir, "clean.json")
	if err := os.WriteFile(clean, []byte(`{"protocol":"chain","n":6,"lambda":1,"k":11,"seed":1,"trials":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-replay", clean)
	if err := cmd.Run(); err == nil {
		t.Fatal("-replay on a clean spec should exit nonzero")
	}
}

func TestListShowsSchemas(t *testing.T) {
	bin := amsearchBin(t)
	out := run(t, bin, "-list")
	for _, want := range []string{"fork_period", "start_within", "withhold", "objectives:", "disagreement", "latency"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-list output missing %q:\n%s", want, out)
		}
	}
}

// The printed reproduce line must rerun the very same search: split by
// the shell and parsed back through amsearch's own flags, it yields a
// DeepEqual result. The first row is the Makefile's SEARCH_ARGS
// (search-smoke), whose non-default tie-break and rungs a hand-written
// line once dropped; the second searches around a -spec file whose path
// holds a space, with a flag set to empty over the file's field.
func TestReproduceLineRerunsSearch(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "my specs")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	specPath := filepath.Join(dir, "fork it.json")
	if err := os.WriteFile(specPath, []byte(`{"protocol":"chain","n":7,"t":2,"lambda":0.5,"k":21,"tiebreak":"adversarial","attack":"fork","seed":3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
	}{
		{"search-smoke", strings.Fields("-protocol chain -n 9 -t 3 -lambda 0.5 -k 41 -tiebreak adversarial " +
			"-attack fork -budget 960 -rungs 8,32 -seed 1")},
		{"spec-path-with-space", []string{"-spec", specPath, "-tiebreak", "", "-budget", "120", "-rungs", "4,12"}},
	}
	runArgs := func(t *testing.T, args []string) (*command, search.Config, scenario.Spec, *search.Result) {
		t.Helper()
		c := newCommand()
		if err := c.fs.Parse(args); err != nil {
			t.Fatalf("parse %q: %v", args, err)
		}
		cfg, base, err := c.config()
		if err != nil {
			t.Fatalf("config %q: %v", args, err)
		}
		res, err := search.Run(cfg)
		if err != nil {
			t.Fatalf("search %q: %v", args, err)
		}
		return c, cfg, base, res
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, cfg, base, want := runArgs(t, tc.args)
			line := c.reproduce(cfg, base, want)
			args := shellSplit(t, strings.TrimPrefix(line, "amsearch "))
			_, _, _, got := runArgs(t, args)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("reproduce line %q ran a different search:\ngot  %+v\nwant %+v", line, got.Best, want.Best)
			}
		})
	}
}

// shellSplit splits line into words the way sh does when it is pasted.
func shellSplit(t *testing.T, line string) []string {
	t.Helper()
	out, err := exec.Command("sh", "-c", `printf '%s\0' `+line).Output()
	if err != nil {
		t.Fatalf("sh could not split %q: %v", line, err)
	}
	return strings.Split(strings.TrimSuffix(string(out), "\x00"), "\x00")
}

// A failed write to stdout must fail the run with exit 1 naming the
// error: the text report of a search, and the -list listing.
func TestOutputWriteErrorExits(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	bin := amsearchBin(t)
	search := []string{"-protocol", "chain", "-n", "9", "-t", "3", "-lambda", "0.5", "-k", "41",
		"-tiebreak", "adversarial", "-attack", "fork", "-budget", "64", "-rungs", "8,32", "-seed", "1"}
	for _, args := range [][]string{search, {"-list"}} {
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
			t.Fatalf("amsearch %s > /dev/full: exit %d (%v), want 1\n%s", strings.Join(args, " "), code, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "no space left") {
			t.Fatalf("amsearch %s: error does not name the failed write: %s", strings.Join(args, " "), stderr.String())
		}
	}
}
