package cache

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 4); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := New(1<<20, 0); err == nil {
		t.Error("zero ways accepted")
	}
	if _, err := New(3*geom.LineBytes, 2); err == nil {
		t.Error("non-power-of-two sets accepted")
	}
	c, err := New(1<<20, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.SizeBytes() != 1<<20 {
		t.Fatalf("SizeBytes = %d", c.SizeBytes())
	}
}

func TestHitAfterFill(t *testing.T) {
	c := MustNew(64*geom.LineBytes, 4)
	if c.Access(42) {
		t.Fatal("cold access hit")
	}
	if !c.Access(42) {
		t.Fatal("second access missed")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
	if c.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", c.HitRate())
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way cache with 2 sets: lines 0,2,4 map to set 0.
	c := MustNew(4*geom.LineBytes, 2)
	c.Access(0)
	c.Access(2)
	c.Access(0) // refresh 0; 2 becomes LRU
	c.Access(4) // evicts 2
	if !c.Access(0) {
		t.Fatal("recently used line evicted")
	}
	if c.Access(2) {
		t.Fatal("LRU line survived eviction")
	}
}

func TestWorkingSetBehavior(t *testing.T) {
	c := MustNew(256*geom.LineBytes, 8)
	// A working set that fits: second pass all hits.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 256; i++ {
			c.Access(geom.LineAddr(i))
		}
	}
	if c.Hits() != 256 {
		t.Fatalf("fitting working set: hits = %d, want 256", c.Hits())
	}
	c.Reset()
	// A streaming working set 4x the cache: second pass still misses.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 1024; i++ {
			c.Access(geom.LineAddr(i))
		}
	}
	if c.HitRate() > 0.01 {
		t.Fatalf("streaming set hit rate = %v, want ~0", c.HitRate())
	}
}

func TestReset(t *testing.T) {
	c := MustNew(64*geom.LineBytes, 4)
	c.Access(1)
	c.Access(1)
	c.Reset()
	if c.Hits() != 0 || c.Misses() != 0 || c.HitRate() != 0 {
		t.Fatal("counters survived reset")
	}
	if c.Access(1) {
		t.Fatal("line survived reset")
	}
}

// stampLRU is the reference the recency-ordered word array must match:
// per-way tag/valid/dirty state, a global counter stamped on every fill
// and hit, the first invalid way or else the lowest stamp as victim.
type stampLRU struct {
	sets, ways               int
	lines                    []stampLine // set s is lines[s*ways : (s+1)*ways]
	now                      uint64
	hits, misses, writebacks uint64
}

type stampLine struct {
	tag          geom.LineAddr
	valid, dirty bool
	stamp        uint64
}

func newStampLRU(sizeBytes, ways int) *stampLRU {
	lines := sizeBytes / geom.LineBytes
	return &stampLRU{sets: lines / ways, ways: ways, lines: make([]stampLine, lines)}
}

func (r *stampLRU) access(line geom.LineAddr, dirty bool) (bool, geom.LineAddr, bool) {
	r.now++
	s := int(uint64(line) % uint64(r.sets))
	set := r.lines[s*r.ways : (s+1)*r.ways]
	for w := range set {
		if set[w].valid && set[w].tag == line {
			set[w].stamp = r.now
			if dirty {
				set[w].dirty = true
			}
			r.hits++
			return true, 0, false
		}
	}
	r.misses++
	v := 0
	for w := range set {
		if !set[w].valid {
			v = w
			break
		}
		if set[w].stamp < set[v].stamp {
			v = w
		}
	}
	var victim geom.LineAddr
	evicted := false
	if set[v].valid && set[v].dirty {
		victim, evicted = set[v].tag, true
		r.writebacks++
	}
	set[v] = stampLine{tag: line, valid: true, dirty: dirty, stamp: r.now}
	return false, victim, evicted
}

func (r *stampLRU) reset() {
	for i := range r.lines {
		r.lines[i].valid, r.lines[i].dirty = false, false
	}
	r.now, r.hits, r.misses, r.writebacks = 0, 0, 0, 0
}

// TestCacheMatchesStampLRU drives the cache and the stamp-based
// reference with the same seeded streams — a working set about 4x the
// capacity, a third of the accesses dirty, a Reset partway — and
// requires the same (hit, victim, evicted) on every access and the same
// counters at the end.
func TestCacheMatchesStampLRU(t *testing.T) {
	const size = 64 * geom.LineBytes
	const n = 40000
	for _, ways := range []int{1, 2, 4, 8, 16} {
		r := rand.New(rand.NewSource(int64(ways)))
		c := MustNew(size, ways)
		ref := newStampLRU(size, ways)
		span := 4 * size / geom.LineBytes
		for i := 0; i < n; i++ {
			if i == n/2 {
				c.Reset()
				ref.reset()
			}
			line := geom.LineAddr(r.Intn(span))
			dirty := r.Intn(3) == 0
			h, v, e := c.AccessDirty(line, dirty)
			wh, wv, we := ref.access(line, dirty)
			if h != wh || v != wv || e != we {
				t.Fatalf("ways=%d access %d line %d dirty=%v: got (%v,%d,%v), want (%v,%d,%v)",
					ways, i, line, dirty, h, v, e, wh, wv, we)
			}
		}
		if c.Hits() != ref.hits || c.Misses() != ref.misses || c.Writebacks() != ref.writebacks {
			t.Fatalf("ways=%d counters: got %d/%d/%d, want %d/%d/%d", ways,
				c.Hits(), c.Misses(), c.Writebacks(), ref.hits, ref.misses, ref.writebacks)
		}
		if c.Hits() == 0 || c.Writebacks() == 0 {
			t.Fatalf("ways=%d: stream exercised no hits or no write-backs", ways)
		}
	}
}
