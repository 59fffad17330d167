package tracefile

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/system"
	"repro/internal/workload"
)

func record(t *testing.T) *File {
	t.Helper()
	w := workload.NewStrideCopy([]int{1, 32}, 2_000, 4<<20)
	f, err := Record(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRecordShape(t *testing.T) {
	f := record(t)
	if len(f.Vars) != 2 || len(f.Threads) != 2 {
		t.Fatalf("vars=%d threads=%d", len(f.Vars), len(f.Threads))
	}
	if f.Refs() != 4_000 {
		t.Fatalf("refs = %d", f.Refs())
	}
	for _, v := range f.Vars {
		if !strings.HasPrefix(v.Site, "stridecopy/") || v.Bytes != 4<<20 {
			t.Fatalf("var = %+v", v)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	f := record(t)
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != f.Name || got.Refs() != f.Refs() || len(got.Vars) != len(f.Vars) {
		t.Fatal("round trip lost data")
	}
}

func TestLoadValidation(t *testing.T) {
	if _, err := Load(strings.NewReader("junk")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(strings.NewReader(`{"version":9}`)); err == nil {
		t.Fatal("wrong version accepted")
	}
	if _, err := Load(strings.NewReader(
		`{"version":1,"vars":[{"site":"a","bytes":64}],"threads":[[{"v":1,"o":0}]]}`)); err == nil {
		t.Fatal("dangling variable index accepted")
	}
	if _, err := Load(strings.NewReader(
		`{"version":1,"vars":[{"site":"a","bytes":64}],"threads":[[{"v":0,"o":64}]]}`)); err == nil {
		t.Fatal("out-of-range offset accepted")
	}
}

func TestReplayRunsUnderSDAM(t *testing.T) {
	// A recorded trace replays under any configuration; the funneled
	// stride in the recording still funnels on replay under BS+DM and is
	// fixed by SDAM.
	w := workload.NewStrideCopy([]int{32, 32, 32, 32}, 4_000, 8<<20)
	f, err := Record(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	rw := f.Workload()
	if rw.Name() != w.Name()+"-trace" {
		t.Fatalf("name = %q", rw.Name())
	}
	base, err := system.Run(rw, system.Options{Kind: system.BSDM})
	if err != nil {
		t.Fatal(err)
	}
	sdam, err := system.Run(rw, system.Options{Kind: system.SDMBSMML, Clusters: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s := sdam.SpeedupOver(base); s < 2 {
		t.Fatalf("replayed-trace SDAM speedup %.2fx, want >2x", s)
	}
}

func TestReplayPreservesReferenceCount(t *testing.T) {
	w := apps.NewHashJoin(apps.Options{MaxRefs: 10_000})
	f, err := Record(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := system.Run(f.Workload(), system.Options{Kind: system.BSDM})
	if err != nil {
		t.Fatal(err)
	}
	if int(res.Run.References) != f.Refs() {
		t.Fatalf("replayed %d refs, recorded %d", res.Run.References, f.Refs())
	}
	if res.Run.Writes == 0 {
		t.Fatal("write flags lost in the trace")
	}
}

// TestHandBuiltFileFailsAtSetup: a File built in code skips Load, so
// the replay's Setup applies Load's checks and names the bad record
// instead of failing mid-sweep on a layout the tape cannot replay.
func TestHandBuiltFileFailsAtSetup(t *testing.T) {
	f := &File{
		Version: formatVersion,
		Name:    "handmade",
		Vars:    []Var{{Site: "a", Bytes: 4096}, {Site: "b", Bytes: 4096}},
		Threads: [][]Rec{{{Var: 0, Off: 64}, {Var: 1, Off: 128}}, {{Var: 0, Off: 0}, {Var: 1, Off: 4096}}},
	}
	_, err := system.Run(f.Workload(), system.Options{Kind: system.BSDM})
	if err == nil {
		t.Fatal("a record outside its variable ran")
	}
	if !strings.Contains(err.Error(), "thread 1 rec 1 offset 4096 outside variable (4096 bytes)") {
		t.Fatalf("error does not name the bad record: %v", err)
	}
}

// TestContentKeyTracksRecords: the tape key is a function of the
// trace's contents — one changed record changes it, and clones share it.
func TestContentKeyTracksRecords(t *testing.T) {
	f := record(t)
	w := f.Workload()
	if w.Clone().TapeKey() != w.TapeKey() {
		t.Fatal("a clone has a different key")
	}
	g := *f
	g.Threads = [][]Rec{append([]Rec(nil), f.Threads[0]...), f.Threads[1]}
	g.Threads[0][17].Off += 64
	if g.Workload().TapeKey() == w.TapeKey() {
		t.Fatal("traces differing in one record share a key")
	}
	if record(t).Workload().TapeKey() != w.TapeKey() {
		t.Fatal("identical recordings have different keys")
	}
}

// FuzzLoad ensures arbitrary bytes never panic the loader.
func FuzzLoad(f *testing.F) {
	good, err := Record(workload.NewStrideCopy([]int{1}, 100, 1<<20), 1)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := good.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`not json at all`))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = Load(bytes.NewReader(data)) // must not panic
	})
}
