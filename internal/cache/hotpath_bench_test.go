package cache

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// benchLines returns a 4096-entry pseudo-random line schedule drawn
// from span distinct lines.
func benchLines(span int) []geom.LineAddr {
	r := rand.New(rand.NewSource(1))
	lines := make([]geom.LineAddr, 4096)
	for i := range lines {
		lines[i] = geom.LineAddr(r.Intn(span))
	}
	return lines
}

// BenchmarkHotPathCache measures one L1 lookup at the production
// geometry (cpu.CPUConfig: 64 KB, 8-way), every third access a write.
// miss draws from a span far larger than the cache, so nearly every
// access scans the set and evicts; hit draws from exactly the cache's
// lines, so after warm-up every access hits at a varying way.
func BenchmarkHotPathCache(b *testing.B) {
	const size, ways = 64 << 10, 8
	for _, bc := range []struct {
		name string
		span int
	}{
		{"miss", 1 << 24},
		{"hit", size / geom.LineBytes},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := MustNew(size, ways)
			lines := benchLines(bc.span)
			for i, l := range lines {
				c.AccessDirty(l, i%3 == 0)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.AccessDirty(lines[i&(len(lines)-1)], i%3 == 0)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/access")
		})
	}
}
