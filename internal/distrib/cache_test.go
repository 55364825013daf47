package distrib

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/scenario"
)

func TestLeaseKeyShape(t *testing.T) {
	spec := scenario.Spec{Protocol: scenario.Dag, N: 8, Lambda: 1, K: 15, Trials: 8}
	base := LeaseKey(spec, 1, 0, 4)
	if len(base) != 64 { // hex sha256
		t.Fatalf("lease key %q is not a sha256 hex digest", base)
	}
	// Every content input must move the key...
	for name, k := range map[string]string{
		"seed": LeaseKey(spec, 2, 0, 4),
		"lo":   LeaseKey(spec, 1, 1, 4),
		"hi":   LeaseKey(spec, 1, 0, 5),
		"spec": LeaseKey(scenario.Spec{Protocol: scenario.Dag, N: 9, Lambda: 1, K: 15, Trials: 8}, 1, 0, 4),
	} {
		if k == base {
			t.Fatalf("changing %s did not change the lease key", name)
		}
	}
	// ...and nothing else: the same inputs re-derive the same key.
	if LeaseKey(spec, 1, 0, 4) != base {
		t.Fatalf("lease key is not deterministic")
	}
}

func TestCacheHitMissEvict(t *testing.T) {
	c, err := NewCache("", 2)
	if err != nil {
		t.Fatal(err)
	}
	v := func(n uint64) [][]uint64 { return [][]uint64{{n}} }
	if _, ok := c.Get("a"); ok {
		t.Fatalf("empty cache hit")
	}
	c.Put("a", v(1))
	c.Put("b", v(2))
	if got, ok := c.Get("a"); !ok || got[0][0] != 1 {
		t.Fatalf("a: got %v ok=%v", got, ok)
	}
	// a was just used, so inserting c evicts b (the LRU tail).
	c.Put("c", v(3))
	if _, ok := c.Get("b"); ok {
		t.Fatalf("b survived eviction past the bound")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatalf("recently-used a was evicted")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Live != 2 {
		t.Fatalf("stats %+v, want 1 eviction and 2 live", st)
	}
	if st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats %+v, want 2 hits / 2 misses", st)
	}
}

func TestCacheDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	vals := [][]uint64{{1, 2}, {3, 4}}

	c1, err := NewCache(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	c1.Put("k1", vals)

	// A fresh cache over the same directory serves the entry from disk.
	c2, err := NewCache(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get("k1")
	if !ok || !reflect.DeepEqual(got, vals) {
		t.Fatalf("disk reload: got %v ok=%v", got, ok)
	}

	// Eviction drops only the memory copy; the next Get reloads from disk.
	c3, err := NewCache(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	c3.Put("k1", vals)
	c3.Put("k2", [][]uint64{{9}})
	if st := c3.Stats(); st.Evictions != 1 {
		t.Fatalf("stats %+v, want one eviction", st)
	}
	if got, ok := c3.Get("k1"); !ok || !reflect.DeepEqual(got, vals) {
		t.Fatalf("evicted disk-backed entry did not reload: got %v ok=%v", got, ok)
	}
}

func TestCacheCorruptFileIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCache(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("bad"); ok {
		t.Fatalf("corrupt cache file served as a hit")
	}
	// A key mismatch inside a well-formed file is also a miss.
	if err := os.WriteFile(filepath.Join(dir, "sneaky.json"),
		[]byte(`{"key":"other","vals":[[1]]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("sneaky"); ok {
		t.Fatalf("mismatched cache file served as a hit")
	}
}

// A cached distributed run must return the identical result with zero
// dispatches, and a shared disk cache must carry across coordinators.
func TestRunWithCache(t *testing.T) {
	spec := scenario.Spec{Name: "cached", Protocol: scenario.Dag, N: 8, T: 2, Lambda: 1, K: 15,
		Attack: "private-chain", Trials: 10, Seed: 6,
		Sweep: []scenario.Axis{{Name: "lambda", Values: []scenario.Value{{Num: 0.5}, {Num: 1}}}}}
	local := mustRunLocal(t, spec)
	dir := t.TempDir()

	cold, err := NewCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := Loopback()
	defer w.Close()
	r1, s1, err := Run(spec, Config{Workers: []Transport{w}, Cache: cold, ChunkSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, spec, local, r1)
	if s1.FromCache != 0 || s1.Dispatched == 0 {
		t.Fatalf("cold run stats %+v", s1)
	}

	// Warm run, new coordinator and cache instance, no workers at all: every
	// lease must come from the shared directory. The chunk size must match —
	// a different chunking addresses different content.
	warm, err := NewCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, s2, err := Run(spec, Config{Cache: warm, ChunkSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, spec, local, r2)
	if s2.FromCache != s2.Leases || s2.Dispatched != 0 || s2.Inline != 0 {
		t.Fatalf("warm run was not fully cache-served: %+v", s2)
	}

	// Changing the seed must miss: content addresses cover it.
	spec2 := spec
	spec2.Seed = 7
	_, s3, err := Run(spec2, Config{Cache: warm, ChunkSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if s3.FromCache != 0 {
		t.Fatalf("different seed hit the cache: %+v", s3)
	}
}

// wireKey is the cache key Run derives for trials [lo, hi) of a
// single-point spec: the lease key of the spec with its resolved metric
// names pinned.
func wireKey(t testing.TB, spec scenario.Spec, lo, hi int) string {
	t.Helper()
	names, _, err := scenario.ResolveMetrics(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Metrics = names
	return LeaseKey(spec, spec.Seed, lo, hi)
}

// malformedVals are lease results of the wrong shape for a 4-trial lease
// of the 4 default metrics.
var malformedVals = []struct {
	name string
	vals [][]uint64
}{
	{"narrow-rows", [][]uint64{{1}, {1}, {1}, {1}}},
	{"too-few-rows", [][]uint64{{1, 1, 1, 1}}},
}

// A cache entry of the wrong shape under the right key is a miss: the
// lease reruns, the result is the in-process one, and the fresh result
// overwrites the entry.
func TestMalformedCacheEntryIsMiss(t *testing.T) {
	spec := scenario.Spec{Name: "malformed-entry", Protocol: scenario.Dag, N: 8, T: 2, Lambda: 1, K: 15,
		Attack: "private-chain", Trials: 4, Seed: 3}
	local := mustRunLocal(t, spec)
	key := wireKey(t, spec, 0, 4)
	for _, tc := range malformedVals {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			data, err := json.Marshal(cacheFile{Key: key, Vals: tc.vals})
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, key+".json"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			cache, err := NewCache(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			res, stats, err := Run(spec, Config{Cache: cache, ChunkSize: 4})
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, spec, local, res)
			if stats.FromCache != 0 || stats.Inline != 1 {
				t.Fatalf("malformed entry was not a miss: %+v", stats)
			}
			fresh, err := NewCache(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			res, stats, err = Run(spec, Config{Cache: fresh, ChunkSize: 4})
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, spec, local, res)
			if stats.FromCache != 1 {
				t.Fatalf("rerun lease did not overwrite the malformed entry: %+v", stats)
			}
		})
	}
}

// FuzzCacheEntry puts arbitrary bytes in the cache file of a sweep's only
// lease. Run must neither panic nor fail, and whenever it did not serve
// the lease from cache its result is the in-process one.
func FuzzCacheEntry(f *testing.F) {
	spec := scenario.Spec{Name: "fuzz-entry", Protocol: scenario.Sync, N: 4, T: 1, Trials: 4, Seed: 2}
	local, err := scenario.RunSpec(spec, scenario.Options{})
	if err != nil {
		f.Fatal(err)
	}
	key := wireKey(f, spec, 0, 4)
	mem, err := NewCache("", 0)
	if err != nil {
		f.Fatal(err)
	}
	if _, _, err := Run(spec, Config{Cache: mem, ChunkSize: 4}); err != nil {
		f.Fatal(err)
	}
	good, _ := mem.Get(key)
	for _, vals := range append([][][]uint64{good}, malformedVals[0].vals, malformedVals[1].vals) {
		data, err := json.Marshal(cacheFile{Key: key, Vals: vals})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("not json"))
	f.Add([]byte(`{"key":"other","vals":[[1,2,3,4]]}`))
	f.Add([]byte(`{"key":"` + key + `","vals":null}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, key+".json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		cache, err := NewCache(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, stats, err := Run(spec, Config{Cache: cache, ChunkSize: 4, InlineWorkers: 1})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if stats.FromCache == 0 && !reflect.DeepEqual(local, res) {
			t.Fatalf("a cache miss changed the result\nlocal: %+v\ngot:   %+v", local, res)
		}
	})
}

func BenchmarkLeaseKey(b *testing.B) {
	spec := scenario.Spec{Protocol: scenario.Dag, N: 32, Lambda: 1, K: 21, Trials: 64}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = LeaseKey(spec, 1, 0, 16)
	}
}
