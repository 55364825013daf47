package stickybit

import (
	"testing"
	"testing/quick"

	"repro/internal/bivalence"
)

func TestBitFirstWriteWins(t *testing.T) {
	var b Bit
	if b.IsSet() {
		t.Fatal("zero value set")
	}
	if _, ok := b.Read(); ok {
		t.Fatal("unset bit readable")
	}
	if !b.Write(1) {
		t.Fatal("first write did not stick")
	}
	if b.Write(0) {
		t.Fatal("second write stuck")
	}
	v, ok := b.Read()
	if !ok || v != 1 {
		t.Fatalf("read = (%d, %v)", v, ok)
	}
}

func TestBitPropertySticky(t *testing.T) {
	// Property: after any write sequence, the bit holds the first value.
	if err := quick.Check(func(vals []bool) bool {
		var b Bit
		for i, v := range vals {
			iv := 0
			if v {
				iv = 1
			}
			stuck := b.Write(iv)
			if (i == 0) != stuck {
				return false
			}
		}
		if len(vals) == 0 {
			return !b.IsSet()
		}
		got, ok := b.Read()
		want := 0
		if vals[0] {
			want = 1
		}
		return ok && got == want
	}, nil); err != nil {
		t.Error(err)
	}
}

// The §1.2 separation, executable: sticky bits solve 1-resilient consensus
// for every n the verifier covers. The configuration counts are pinned:
// E13 and the impossibility example print them.
func TestStickyBitsSolveConsensus(t *testing.T) {
	for n, want := range map[int]int{2: 44, 3: 312, 4: 2096} {
		rep := Verify(n)
		if !rep.OK() {
			t.Fatalf("n=%d: %+v", n, rep)
		}
		if rep.Configurations != want {
			t.Fatalf("n=%d: %d configurations, want %d", n, rep.Configurations, want)
		}
	}
}

// ...while the append memory cannot (Theorem 2.1, cross-checked against
// the bivalence checker on the same task).
func TestAppendMemoryCannot(t *testing.T) {
	for _, p := range bivalence.Family(2) {
		if v := bivalence.CheckTheorem(p, 2, 100000); v.OK() {
			t.Fatalf("append-memory protocol %s solved consensus", v.Protocol)
		}
	}
}

func TestVerifyBounds(t *testing.T) {
	for _, n := range []int{1, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Verify(%d) did not panic", n)
				}
			}()
			Verify(n)
		}()
	}
}

// lastWriteWins runs the sticky-bit node programs on an ordinary
// read-write register instead: every write overwrites the bit.
func lastWriteWins(c config, i int) config {
	if c.nodes[i].phase == phaseWrite {
		c.bitSet, c.bitVal = true, c.nodes[i].input
	}
	return c.step(i)
}

func TestVerifyDetectsBrokenObject(t *testing.T) {
	// The verifier is not vacuous: on a last-write-wins register one node
	// can write and decide its input before the other overwrites it with
	// a different input, and the agreement scan must see that. Validity
	// and termination still hold: unanimous writers write the same value,
	// and the programs never wait.
	rep := verify(2, lastWriteWins)
	if rep.Agreement || !rep.Validity || !rep.Termination {
		t.Fatalf("last-write-wins register: %+v, want only agreement to fail", rep)
	}
}
