package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The bare -trials N line reads the default metrics of one RunSpec: it
// must print the bytes pinned in testdata/trials.golden (one line per
// case, in order) at any -workers.
func TestBareTrialsGolden(t *testing.T) {
	bin := amrunBin(t)
	golden, err := os.ReadFile(filepath.Join("testdata", "trials.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.SplitAfter(string(golden), "\n")
	cases := [][]string{
		{"-protocol", "chain", "-tiebreak", "random", "-n", "10", "-t", "4", "-lambda", "0.1", "-k", "41",
			"-attack", "tiebreak", "-trials", "50"},
		{"-protocol", "dag", "-n", "10", "-t", "4", "-lambda", "1", "-k", "41",
			"-attack", "private-chain", "-trials", "30"},
		{"-protocol", "sync", "-n", "8", "-t", "3", "-rounds", "2", "-inputs", "split:3",
			"-attack", "delayed-chain", "-trials", "20"},
	}
	if len(want) != len(cases)+1 || want[len(cases)] != "" {
		t.Fatalf("golden has %d lines, want %d", len(want)-1, len(cases))
	}
	for i, args := range cases {
		for _, workers := range []string{"1", "4"} {
			got, _ := run(t, bin, append(args, "-workers", workers)...)
			if got != want[i] {
				t.Errorf("amrun %s -workers %s:\ngot  %q\nwant %q", strings.Join(args, " "), workers, got, want[i])
			}
		}
	}
}
