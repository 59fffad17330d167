package cpu

import (
	"testing"

	"repro/internal/geom"
)

// TestEngineOpsZeroAllocs pins the engine's per-reference structures —
// the MSHR window, the core heap and the cache walk — at zero heap
// allocations per operation.
func TestEngineOpsZeroAllocs(t *testing.T) {
	var m mshrRing
	m.init(64)
	var v float64
	if n := testing.AllocsPerRun(2000, func() {
		if m.full() {
			m.evictMin()
		}
		m.add(v)
		v += float64(int(v)%7) - 2.5 // mostly rising, sometimes falling
	}); n != 0 {
		t.Errorf("mshrRing evictMin+add allocates %.1f objects per miss, want 0", n)
	}

	cores := make([]coreState, 4)
	h := make(coreHeap, 0, len(cores))
	for i := range cores {
		cores[i].id = i
		h.push(&cores[i])
	}
	if n := testing.AllocsPerRun(2000, func() {
		c := h.pop()
		c.nextReady += float64(1 + c.id)
		h.push(c)
	}); n != 0 {
		t.Errorf("coreHeap pop+push allocates %.1f objects per round-trip, want 0", n)
	}

	cfg := CPUConfig(1)
	cfg.CacheBytes, cfg.CacheWays = 256<<10, 8 // exercise the L1 → LLC walk
	cfg.WriteBack = true
	e := New(cfg, nil, nil)
	var l geom.LineAddr
	if n := testing.AllocsPerRun(2000, func() {
		e.lookupCaches(0, l, l%3 == 0)
		e.fillCaches(0, l+1)
		l += 7
	}); n != 0 {
		t.Errorf("lookupCaches+fillCaches allocates %.1f objects per reference, want 0", n)
	}
}
