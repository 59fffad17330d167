package profile

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/trace"
)

// buildCollector creates three variables with reference counts 80, 15, 5
// so that exactly the hot variable is major at the 80 % threshold.
func buildCollector() *trace.Collector {
	c := trace.NewCollector(0)
	c.NoteAlloc("hot", 64<<20)
	c.NoteAlloc("warm", 8<<20)
	c.NoteAlloc("cold", 1<<20)
	emit := func(alloc int32, n, stride int) {
		for i := 0; i < n; i++ {
			c.Record(alloc, geom.LineAddr(i*stride))
		}
	}
	emit(1, 800, 1)
	emit(2, 150, 16)
	emit(3, 50, 4)
	return c
}

func TestMajorVariableSelection(t *testing.T) {
	p := FromCollector("test", buildCollector())
	if p.TotalRefs != 1000 {
		t.Fatalf("total refs = %d", p.TotalRefs)
	}
	majors := p.Majors()
	if len(majors) != 1 || majors[0].Site != "hot" {
		t.Fatalf("majors = %+v", majors)
	}
	if cov := p.MajorCoverage(); cov != 0.8 {
		t.Fatalf("coverage = %v", cov)
	}
}

func TestVarsSortedByRefs(t *testing.T) {
	p := FromCollector("test", buildCollector())
	for i := 1; i < len(p.Vars); i++ {
		if p.Vars[i-1].Refs < p.Vars[i].Refs {
			t.Fatal("vars not sorted by refs desc")
		}
	}
	if p.Vars[0].Site != "hot" {
		t.Fatalf("hottest = %q", p.Vars[0].Site)
	}
}

func TestTable1Row(t *testing.T) {
	p := FromCollector("mcfproxy", buildCollector())
	row := p.Table1()
	if row.Benchmark != "mcfproxy" || row.NumVars != 3 || row.NumMajor != 1 {
		t.Fatalf("row = %+v", row)
	}
	if row.AvgMajorMB != 64 || row.MinMajorMB != 64 {
		t.Fatalf("major sizes: avg %.1f min %.1f", row.AvgMajorMB, row.MinMajorMB)
	}
	if !strings.Contains(row.String(), "mcfproxy") {
		t.Fatal("row string missing benchmark")
	}
}

func TestBFRVsMatchMajorSet(t *testing.T) {
	p := FromCollector("t", buildCollector())
	vecs, vids := p.BFRVs()
	if len(vecs) != 1 || len(vids) != 1 {
		t.Fatalf("got %d vectors", len(vecs))
	}
	// The hot variable streams at stride 1: bit 0 flips always.
	if vecs[0][0] != 1.0 {
		t.Fatalf("major BFRV[0] = %v", vecs[0][0])
	}
}

func TestEmptyProfile(t *testing.T) {
	p := FromCollector("empty", trace.NewCollector(0))
	if len(p.Vars) != 0 || p.TotalRefs != 0 {
		t.Fatal("empty collector produced variables")
	}
	if p.MajorCoverage() != 0 {
		t.Fatal("empty coverage nonzero")
	}
	row := p.Table1()
	if row.NumMajor != 0 || row.AvgMajorMB != 0 {
		t.Fatalf("row = %+v", row)
	}
}

func TestAllRefsOneVariable(t *testing.T) {
	c := trace.NewCollector(0)
	c.NoteAlloc("only", 1<<20)
	for i := 0; i < 100; i++ {
		c.Record(1, geom.LineAddr(i))
	}
	p := FromCollector("single", c)
	if len(p.Majors()) != 1 {
		t.Fatalf("majors = %d", len(p.Majors()))
	}
	if p.MajorCoverage() != 1.0 {
		t.Fatalf("coverage = %v", p.MajorCoverage())
	}
}

func TestProfileSaveLoadRoundTrip(t *testing.T) {
	orig := FromCollector("persisted", buildCollector())
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.App != orig.App || got.TotalRefs != orig.TotalRefs || len(got.Vars) != len(orig.Vars) {
		t.Fatalf("round trip lost data: %+v", got)
	}
	for i := range got.Vars {
		if got.Vars[i].Site != orig.Vars[i].Site || got.Vars[i].Refs != orig.Vars[i].Refs ||
			got.Vars[i].Major != orig.Vars[i].Major || got.Vars[i].BFRV != orig.Vars[i].BFRV {
			t.Fatalf("var %d differs:\n got %+v\nwant %+v", i, got.Vars[i], orig.Vars[i])
		}
	}
	if got.MajorCoverage() != orig.MajorCoverage() {
		t.Fatal("major coverage changed")
	}
}

func TestLoadRejectsGarbageAndWrongVersion(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(strings.NewReader(`{"version": 99, "app": "x"}`)); err == nil {
		t.Fatal("wrong version accepted")
	}
}

func TestLoadRederivesMajors(t *testing.T) {
	// An artifact with tampered major flags is corrected on load.
	orig := FromCollector("tamper", buildCollector())
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	tampered := strings.ReplaceAll(buf.String(), `"Major": true`, `"Major": false`)
	got, err := Load(strings.NewReader(tampered))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Majors()) != len(orig.Majors()) {
		t.Fatalf("majors not re-derived: %d vs %d", len(got.Majors()), len(orig.Majors()))
	}
}
