package profile_test

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/geom"
	"repro/internal/mapping"
	"repro/internal/profile"
)

// FuzzLoad checks that Load either rejects its input or returns a
// profile that survives the pipeline downstream of it: Save→Load
// reproduces its Fingerprint, and the single-mapping and k-means
// selectors run on it without panicking. Seeds beyond the ones added
// here live in testdata/fuzz/FuzzLoad.
func FuzzLoad(f *testing.F) {
	var bfrv mapping.BFRV
	for i := range bfrv {
		bfrv[i] = float64(i) / float64(len(bfrv))
	}
	good := profile.Profile{App: "seed", TotalRefs: 100, Vars: []profile.VarProfile{
		{VID: 0, Site: "hot", Refs: 80, Bytes: 64 << 20, BFRV: bfrv, Sample: []uint32{0, 1, 2, 3, 64, 65}},
		{VID: 1, Site: "warm", Refs: 15, Bytes: 8 << 20, Sample: []uint32{0, 16, 32}},
		{VID: 2, Site: "cold", Refs: 5, Bytes: 1 << 20},
	}}
	var buf bytes.Buffer
	if err := good.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":1,"total_refs":3,"vars":[{"VID":0,"Refs":2},{"VID":0,"Refs":2}]}`))

	g := geom.Default()
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := profile.Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := p.Save(&out); err != nil {
			t.Fatalf("Save of a loaded profile: %v", err)
		}
		q, err := profile.Load(&out)
		if err != nil {
			t.Fatalf("Load of a saved profile: %v", err)
		}
		if q.Fingerprint() != p.Fingerprint() {
			t.Fatalf("Save→Load changed the fingerprint:\n%+v\n%+v", p, q)
		}
		_, _ = cluster.SelectSingle(p, g)
		_, _ = cluster.SelectKMeans(p, 4, g)
	})
}
