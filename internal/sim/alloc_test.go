package sim

import "testing"

// TestScheduleStepNoAllocs pins the steady-state allocation behaviour the
// trial pooling depends on: once the queue's buckets have grown to their
// working size, At and Step allocate nothing. Scheduling a
// pre-bound callback must not box it, settling or popping must not
// shrink or reallocate a bucket, and a fired event's callback slot must
// be reused.
func TestScheduleStepNoAllocs(t *testing.T) {
	s := New()
	fn := func() {}

	// Warm the buckets' capacity past anything the measured loop needs.
	for i := 0; i < 64; i++ {
		s.At(Time(i), fn)
	}
	for s.Step() {
	}

	allocs := testing.AllocsPerRun(100, func() {
		s.At(s.Now()+1, fn)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("At+Step allocated %.1f times per op, want 0", allocs)
	}
	if len(s.fns) > 64 {
		t.Fatalf("%d callback slots for at most 64 pending events", len(s.fns))
	}
}

// TestResetRetainsCapacity checks Reset keeps every bucket's grown backing
// array and the callback slots, so a pooled Sim re-enters service already
// warm, and that it drops the pending callbacks.
func TestResetRetainsCapacity(t *testing.T) {
	s := New()
	fn := func() {}
	for i := 0; i < 64; i++ {
		s.At(Time(i), fn)
	}
	for i := 0; i < 3; i++ {
		s.Step() // the third settles the bucket holding 2..63 into lower ones
	}
	var grown [len(s.buckets)]int
	total := 0
	for b := range s.buckets {
		grown[b] = cap(s.buckets[b])
		total += grown[b]
	}
	if total == 0 {
		t.Fatal("no bucket grew")
	}
	fns, free := cap(s.fns), cap(s.free)
	s.Reset()
	for b := range s.buckets {
		if cap(s.buckets[b]) != grown[b] {
			t.Fatalf("Reset dropped bucket %d capacity: %d -> %d", b, grown[b], cap(s.buckets[b]))
		}
		if len(s.buckets[b]) != 0 {
			t.Fatalf("Reset left %d events in bucket %d", len(s.buckets[b]), b)
		}
	}
	if cap(s.fns) != fns || cap(s.free) != free {
		t.Fatalf("Reset dropped slot capacity: fns %d -> %d, free %d -> %d", fns, cap(s.fns), free, cap(s.free))
	}
	for i, f := range s.fns[:cap(s.fns)] {
		if f != nil {
			t.Fatalf("Reset kept the callback in slot %d", i)
		}
	}
	if s.Pending() != 0 || s.Now() != 0 || s.Stopped() {
		t.Fatalf("Reset left state behind: pending=%d now=%v stopped=%v",
			s.Pending(), s.Now(), s.Stopped())
	}
}
