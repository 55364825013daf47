package experiments_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/report"
)

var update = flag.Bool("update", false, "rewrite the golden files instead of comparing")

// TestGoldenByteIdentical locks the determinism contract the performance
// work must preserve: a same-seed experiment run renders byte-for-byte the
// same tables as it did before the allocation-free core landed. One chain
// experiment (E5) and one DAG experiment (E8) cover both substrates. The
// golden files were generated from the pre-optimization tree, so any
// change to RNG draw order, event tie-breaking, or view iteration order
// shows up here as a diff.
//
// To regenerate after an intentional output change:
//
//	go test ./internal/experiments -run TestGoldenByteIdentical -update
func TestGoldenByteIdentical(t *testing.T) {
	for _, id := range []string{"E5", "E8"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e, ok := experiments.ByID(id)
			if !ok {
				t.Fatalf("unknown experiment %s", id)
			}
			r := experiments.Run(e, experiments.Options{Quick: true, Seed: 1})
			got := ""
			for _, tbl := range r.Tables {
				got += report.TableText(tbl) + "\n"
			}

			path := filepath.Join("testdata", "golden_"+id+"_quick.txt")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s quick output is not byte-identical to %s\n"+
					"(seeded runs must not change under perf work; "+
					"run with -update only for intentional output changes)", id, path)
				diffAt(t, string(want), got)
			}
		})
	}
}

// TestConcurrentWorkersByteIdentical locks the fan-out's determinism
// contract end to end: the full experiment suite, streamed concurrently,
// renders byte-for-byte the same tables at -workers 1 (every trial on
// the calling goroutine, no helpers) as at -workers 8 (chunks claimed by
// the caller and seven helpers per fan-out, across all the concurrent
// fan-outs). Any dependence of a result on worker count, chunk
// boundaries, or cross-experiment interleaving shows up here.
func TestConcurrentWorkersByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick suite at two worker counts is slow")
	}
	render := func(workers int) string {
		var sb []byte
		experiments.RunStream(experiments.All(),
			experiments.Options{Quick: true, Seed: 1, Workers: workers},
			func(r *experiments.Result) {
				for _, tbl := range r.Tables {
					sb = append(sb, report.TableText(tbl)...)
					sb = append(sb, '\n')
				}
			})
		return string(sb)
	}
	serial := render(1)
	parallel := render(8)
	if serial != parallel {
		t.Errorf("quick suite output differs between -workers 1 and -workers 8")
		diffAt(t, serial, parallel)
	}
}

// diffAt reports the first differing line, keeping failures readable
// without dumping both full outputs.
func diffAt(t *testing.T, want, got string) {
	t.Helper()
	wl, gl := splitLines(want), splitLines(got)
	for i := 0; i < len(wl) || i < len(gl); i++ {
		w, g := "", ""
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			t.Errorf("first difference at line %d:\n  golden: %q\n  got:    %q", i+1, w, g)
			return
		}
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
