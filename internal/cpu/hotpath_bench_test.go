package cpu

import (
	"math/rand"
	"testing"
)

// mshrSchedule returns n seeded miss completion times shaped like the
// engine's traffic, plus the issue clock at the end of the schedule.
// One core issues a miss every gap ns, waiting for the earliest
// completion once its slots-deep window is full, and each miss takes a
// base latency plus a uniform jitter. The jitter is fitted to the rank
// histograms measured in the engine once the window is full: with the
// accelerator's window (slots 64, gap 0.5, jitter 60) an insert shifts
// 9.0 entries on average and 17% append at the tail (measured: 9.0 and
// 20%); with the CPU's (slots 8, gap 4, jitter 14) 0.23 and 80%
// (measured: 0.33 and 80%).
func mshrSchedule(slots, n int, gap, jitter float64) (times []float64, end float64) {
	const base = 40
	r := rand.New(rand.NewSource(1))
	ref := &linearMSHR{slots: slots}
	times = make([]float64, n)
	var t float64
	for i := range times {
		if ref.full() {
			if m := ref.evictMin(); m > t {
				t = m
			}
		}
		times[i] = t + base + jitter*r.Float64()
		ref.add(times[i])
		t += gap
	}
	return times, t
}

// BenchmarkHotPathMSHR measures one miss through the outstanding-miss
// window — an evictMin once the window is full, then an add — replaying
// a 4096-miss schedule at the accelerator's and the CPU's window depth.
// Each replay of the schedule is shifted by its span, so the stream of
// completion times stays near-monotone across the wrap.
func BenchmarkHotPathMSHR(b *testing.B) {
	for _, bc := range []struct {
		name        string
		slots       int
		gap, jitter float64
	}{
		{"accel64", 64, 0.5, 60},
		{"cpu8", 8, 4, 14},
	} {
		b.Run(bc.name, func(b *testing.B) {
			const logN = 12
			times, span := mshrSchedule(bc.slots, 1<<logN, bc.gap, bc.jitter)
			var m mshrRing
			m.init(bc.slots)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if m.full() {
					m.evictMin()
				}
				m.add(times[i&(1<<logN-1)] + float64(i>>logN)*span)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/miss")
		})
	}
}
