package sim

import (
	"strconv"
	"testing"

	"repro/internal/xrand"
)

// BenchmarkHold is the classic hold model: a queue kept at a fixed size,
// where every fired event schedules one successor a random delay ahead.
// 1,024 pending is about the visibility flood's high-water mark on a
// 256-node small-world graph.
func BenchmarkHold(b *testing.B) {
	for _, size := range []int{16, 1024} {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			s := New()
			rng := xrand.New(1, 1)
			var hop func()
			hop = func() { s.After(Time(rng.Float64()), hop) }
			for i := 0; i < size; i++ {
				s.At(Time(rng.Float64()), hop)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
		})
	}
}
