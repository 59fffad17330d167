package nn

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchSeqs mirrors the DL selector's training set shape on the
// committed jobs-8 bfs datapoint: 256 windows of 16 (Δ, VID) pairs.
func benchSeqs(n, T, numVIDs int) []Sequence {
	r := rand.New(rand.NewSource(7))
	seqs := make([]Sequence, n)
	for i := range seqs {
		s := Sequence{Deltas: make([]uint32, T), VIDs: make([]int, T)}
		for t := 0; t < T; t++ {
			s.Deltas[t] = uint32(r.Intn(1 << 15))
			s.VIDs[t] = r.Intn(numVIDs)
		}
		seqs[i] = s
	}
	return seqs
}

// BenchmarkTrainJoint measures the DL selector's training loop at the
// SelectDL defaults (Steps 300, Batch 4, K 32) — the dominant cost of
// the SDM+BSM+DL sweep cell that internal/f64's lane-fused kernels
// target.
func BenchmarkTrainJoint(b *testing.B) {
	seqs := benchSeqs(256, 16, 8)
	cfg := DefaultConfig(8)
	for b.Loop() {
		m, err := NewAutoencoder(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.TrainJoint(seqs, TrainOptions{Steps: 75, K: 32, Seed: 1, Batch: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainJointLanes times one TrainJoint optimizer step at the
// SelectDL shape (Batch 4, windows of 16) with the lane-tile width
// pinned to 1..4, so every width is measured whatever tileWidth would
// pick for the host's worker count.
func BenchmarkTrainJointLanes(b *testing.B) {
	seqs := benchSeqs(256, 16, 8)
	for lanes := 1; lanes <= laneWidth; lanes++ {
		b.Run(fmt.Sprintf("lanes=%d", lanes), func(b *testing.B) {
			m, err := NewAutoencoder(DefaultConfig(8))
			if err != nil {
				b.Fatal(err)
			}
			tr := newTrainer(m, 4, 16, lanes)
			opt := NewAdam(m.Params(), 0.001)
			r := rand.New(rand.NewSource(1))
			idx := make([]int, 4)
			for b.Loop() {
				for i := range idx {
					idx[i] = r.Intn(len(seqs))
				}
				tr.step(seqs, idx, nil, nil, 0)
				opt.Step()
			}
		})
	}
}
