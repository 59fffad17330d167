package trace

import (
	"testing"

	"repro/internal/geom"
)

func TestVIDStablePerSite(t *testing.T) {
	c := NewCollector(0)
	a := c.VIDOf("foo.c:10")
	b := c.VIDOf("bar.c:20")
	if a == b {
		t.Fatal("distinct sites share a VID")
	}
	if c.VIDOf("foo.c:10") != a {
		t.Fatal("VID not stable")
	}
	if len(c.Variables()) != 2 {
		t.Fatalf("variables = %d", len(c.Variables()))
	}
}

func TestRecordBuildsOnlineBFRV(t *testing.T) {
	c := NewCollector(0)
	c.NoteAlloc("streamvar", 1<<20)
	// Stream at stride 1 line within the variable.
	for i := 0; i < 1024; i++ {
		c.Record(1, geom.LineAddr(i))
	}
	v := c.Variables()[0]
	if v.Refs != 1024 {
		t.Fatalf("refs = %d", v.Refs)
	}
	bfrv := v.BFRV()
	if bfrv[0] != 1.0 {
		t.Fatalf("streaming bit-0 flip rate = %v", bfrv[0])
	}
	if bfrv[5] >= bfrv[0] {
		t.Fatal("flip rates not decreasing for streaming")
	}
}

func TestRecordUnattributed(t *testing.T) {
	c := NewCollector(0)
	c.NoteAlloc("v", 1<<20)
	c.Record(0, 1)
	if c.Unattributed != 1 {
		t.Fatalf("Unattributed = %d", c.Unattributed)
	}
	if c.TotalRefs() != 0 {
		t.Fatal("unattributed access counted as a reference")
	}
}

func TestDeltaSequenceBounded(t *testing.T) {
	c := NewCollector(8)
	c.NoteAlloc("v", 1<<20)
	for i := 0; i < 100; i++ {
		c.Record(1, geom.LineAddr(i))
	}
	d := c.Deltas()
	if len(d) != 8 {
		t.Fatalf("deltas = %d, want cap 8", len(d))
	}
	// Consecutive line addresses i-1 ^ i: first pair 0^1 = 1.
	if d[0].Delta != 1 || d[0].VID != 0 {
		t.Fatalf("first delta = %+v", d[0])
	}
}

// TestSlotsOfOneSiteShareAVariable: NoteAlloc gives every allocation a
// slot in call order; slots of one site attribute to that site's one
// variable, whose Bytes sums its allocations.
func TestSlotsOfOneSiteShareAVariable(t *testing.T) {
	c := NewCollector(0)
	c.NoteAlloc("a", 0x100) // slot 0
	c.NoteAlloc("b", 0x300) // slot 1
	c.NoteAlloc("a", 0x200) // slot 2: same variable, second block
	vars := c.Variables()
	if len(vars) != 2 {
		t.Fatalf("variables = %d, want 2", len(vars))
	}
	if a, b := vars[0], vars[1]; a.Site != "a" || a.Bytes != 0x300 || b.Site != "b" || b.Bytes != 0x300 {
		t.Fatalf("variables = %+v, %+v", *a, *b)
	}
	for _, tc := range []struct {
		alloc int32
		vid   int
	}{{1, 0}, {2, 1}, {3, 0}, {3, 0}} {
		before := vars[tc.vid].Refs
		c.Record(tc.alloc, geom.LineAddr(tc.alloc))
		if vars[tc.vid].Refs != before+1 {
			t.Fatalf("Record(%d, _) not attributed to site %q", tc.alloc, vars[tc.vid].Site)
		}
	}
	if vars[0].Refs != 3 || vars[1].Refs != 1 || c.Unattributed != 0 {
		t.Fatalf("refs a=%d b=%d unattributed=%d, want 3, 1, 0", vars[0].Refs, vars[1].Refs, c.Unattributed)
	}
}
