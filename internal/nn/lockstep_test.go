package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// lenSeqs builds one random sequence per entry of lens, of that length.
func lenSeqs(lens []int, numVIDs int, seed int64) []Sequence {
	r := rand.New(rand.NewSource(seed))
	seqs := make([]Sequence, len(lens))
	for i, T := range lens {
		for t := 0; t < T; t++ {
			seqs[i].Deltas = append(seqs[i].Deltas, uint32(r.Intn(1<<15)))
			seqs[i].VIDs = append(seqs[i].VIDs, r.Intn(numVIDs))
		}
	}
	return seqs
}

// laneLens are the tile shapes the lockstep tests run: equal lengths,
// a T = 1 lane among longer ones, and lengths that all differ. A tile
// of width w takes the first w entries.
var laneLens = [][]int{{5, 5, 5, 5}, {6, 1, 6, 3}, {1, 4, 7, 2}}

// TestLaneTileMatchesScalarStep is the host-independent oracle for the
// lockstep trainer. A lane tile of every width 1-4, over ragged lengths
// and with and without the clustering pull, must leave each slot with
// exactly the loss and gradients that the scalar per-sequence stepIn
// computes on a fresh shadow of the same model. The tile width is set
// directly, so the test does not depend on the host's worker count.
func TestLaneTileMatchesScalarStep(t *testing.T) {
	stacked := smallConfig()
	stacked.Layers = 2
	for ci, cfg := range []Config{DefaultConfig(8), stacked} {
		for width := 1; width <= laneWidth; width++ {
			for li, lens := range laneLens {
				for _, joint := range []bool{false, true} {
					name := fmt.Sprintf("cfg=%d/width=%d/lens=%d/joint=%v", ci, width, li, joint)
					checkLaneTile(t, name, cfg, lens[:width], joint)
				}
			}
		}
	}
}

func checkLaneTile(t *testing.T, name string, cfg Config, lens []int, joint bool) {
	t.Helper()
	m, err := NewAutoencoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seqs := lenSeqs(lens, cfg.NumVIDs, int64(len(lens)))
	maxT := 0
	idx := make([]int, len(lens))
	for i, T := range lens {
		maxT = max(maxT, T)
		idx[i] = i
	}
	var centroids [][]float64
	var assign []int
	const lambda = 0.01
	if joint {
		r := rand.New(rand.NewSource(5))
		for k := 0; k < 2; k++ {
			c := make([]float64, cfg.Hidden)
			for j := range c {
				c[j] = r.Float64()*2 - 1
			}
			centroids = append(centroids, c)
		}
		for i := range seqs {
			assign = append(assign, i%2)
		}
	}

	tr := newTrainer(m, laneWidth, maxT, len(lens))
	ti := tr.tiles[0]
	if ti.lo != 0 || ti.hi != len(lens) {
		t.Fatalf("%s: first tile covers [%d, %d), want [0, %d)", name, ti.lo, ti.hi, len(lens))
	}
	ti.run(seqs, idx, centroids, assign, lambda)

	for b := range lens {
		var centroid []float64
		if joint {
			centroid = centroids[assign[b]]
		}
		sh := m.shadow()
		want := sh.stepIn(sh.newScratch(maxT), seqs[b], centroid, lambda)
		if got := tr.losses[b]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: slot %d loss %v, stepIn %v", name, b, got, want)
		}
		for pi, p := range sh.Params() {
			bitsEq(t, fmt.Sprintf("%s: slot %d %s.Grad", name, b, p.Name), tr.sParams[b][pi].Grad, p.Grad)
		}
	}
}

// TestLaneTileZeroAlloc pins laneTile.run's //sdam:noalloc contract at
// every tile width: after one warm-up call sizes the scratch, an
// optimizer step's tile allocates nothing.
func TestLaneTileZeroAlloc(t *testing.T) {
	lens := laneLens[1]
	seqs := lenSeqs(lens, 8, 3)
	idx := []int{0, 1, 2, 3}
	centroids := [][]float64{make([]float64, DefaultConfig(8).Hidden)}
	assign := []int{0, 0, 0, 0}
	for width := 1; width <= laneWidth; width++ {
		m, err := NewAutoencoder(DefaultConfig(8))
		if err != nil {
			t.Fatal(err)
		}
		ti := newTrainer(m, laneWidth, 6, width).tiles[0]
		ti.run(seqs, idx, centroids, assign, 0.01) // warm-up
		allocs := testing.AllocsPerRun(10, func() {
			ti.run(seqs, idx, centroids, assign, 0.01)
		})
		if allocs != 0 {
			t.Fatalf("width=%d: laneTile.run allocates %v times per run, want 0", width, allocs)
		}
	}
}
