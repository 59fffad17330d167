package nn

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/parallel"
)

// genSequences builds a deterministic training set.
func genSequences(n, seqLen, numVIDs int, seed int64) []Sequence {
	r := rand.New(rand.NewSource(seed))
	seqs := make([]Sequence, n)
	for i := range seqs {
		for t := 0; t < seqLen; t++ {
			seqs[i].Deltas = append(seqs[i].Deltas, uint32(r.Intn(1<<15)))
			seqs[i].VIDs = append(seqs[i].VIDs, r.Intn(numVIDs))
		}
	}
	return seqs
}

func trainOnce(t *testing.T, jobs int, opts TrainOptions) (TrainReport, []*Param) {
	t.Helper()
	prev := parallel.SetJobs(jobs)
	defer parallel.SetJobs(prev)
	m, err := NewAutoencoder(DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	report, err := m.TrainJoint(genSequences(48, 12, 8, 7), opts)
	if err != nil {
		t.Fatal(err)
	}
	return report, m.Params()
}

// TestTrainJointBitIdenticalAcrossJobs pins the tentpole invariant: the
// batched trainer's fixed-slot-order gradient reduction makes the whole
// training trajectory — final weights, losses, clustering, embeddings —
// bit-identical no matter how many workers compute the per-sequence
// gradients.
func TestTrainJointBitIdenticalAcrossJobs(t *testing.T) {
	opts := TrainOptions{Steps: 30, K: 3, Batch: 4, Reassign: 10}
	serialReport, serialParams := trainOnce(t, 1, opts)
	for _, jobs := range []int{2, 8} {
		report, params := trainOnce(t, jobs, opts)
		if !reflect.DeepEqual(serialReport, report) {
			t.Fatalf("jobs=%d: report diverged from serial run", jobs)
		}
		for i, p := range params {
			if !reflect.DeepEqual(serialParams[i].W, p.W) {
				t.Fatalf("jobs=%d: param %s weights diverged", jobs, p.Name)
			}
		}
	}
}

// TestTrainJointBatchOneMatchesClassicLoop pins the Batch <= 1 fast
// path: one sequence per step accumulating directly into the master
// model, the pre-batching recipe bit for bit.
func TestTrainJointBatchOneMatchesClassicLoop(t *testing.T) {
	opts := TrainOptions{Steps: 20, K: 3}
	a, pa := trainOnce(t, 1, opts)
	b, pb := trainOnce(t, 8, opts)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Batch=1 report differs across jobs")
	}
	for i := range pa {
		if !reflect.DeepEqual(pa[i].W, pb[i].W) {
			t.Fatalf("Batch=1 param %s differs across jobs", pa[i].Name)
		}
	}
}

// TestEncodeMatchesForward pins the encoder-only embedding path against
// the full forward pass: the decoder never feeds back into h, so the
// two must agree bit for bit.
func TestEncodeMatchesForward(t *testing.T) {
	m, err := NewAutoencoder(DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range genSequences(8, 12, 8, 3) {
		f := m.forward(s)
		h := m.Embed(s)
		if !reflect.DeepEqual(append([]float64(nil), f.h...), h) {
			t.Fatal("encoder-only embedding differs from full forward's h")
		}
	}
}

// TestStepScratchZeroAlloc pins the reused per-step scratch: after the
// first call warms the buffers, a training step allocates nothing.
func TestStepScratchZeroAlloc(t *testing.T) {
	m, err := NewAutoencoder(DefaultConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	seqs := genSequences(4, 12, 8, 5)
	sc := m.newScratch(12)
	centroid := make([]float64, m.cfg.Hidden)
	m.stepIn(sc, seqs[0], centroid, 0.01) // warm-up
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
	allocs := testing.AllocsPerRun(10, func() {
		m.stepIn(sc, seqs[1], centroid, 0.01)
	})
	if allocs != 0 {
		t.Fatalf("stepIn allocates %v times per run, want 0", allocs)
	}
}

// genRagged builds sequences whose lengths cycle 4..15, so lockstep
// tiles mix lanes of different lengths: past a lane's own T, its slot
// in the dense backward kernels runs on a zero gradient row.
func genRagged(n, numVIDs int, seed int64) []Sequence {
	r := rand.New(rand.NewSource(seed))
	seqs := make([]Sequence, n)
	for i := range seqs {
		T := 4 + (i*5)%12
		for t := 0; t < T; t++ {
			seqs[i].Deltas = append(seqs[i].Deltas, uint32(r.Intn(1<<15)))
			seqs[i].VIDs = append(seqs[i].VIDs, r.Intn(numVIDs))
		}
	}
	return seqs
}

// TestTrainJointRaggedLanesBitIdentical sweeps batch sizes 1-8 over a
// ragged-length training set, and the whole trajectory must stay
// bit-identical between a serial run and an 8-worker run. Which lane
// counts the tiles get depends on the host's GOMAXPROCS; the
// host-independent per-width oracle is TestLaneTileMatchesScalarStep.
func TestTrainJointRaggedLanesBitIdentical(t *testing.T) {
	seqs := genRagged(24, 8, 11)
	train := func(jobs, batch int) (TrainReport, []*Param) {
		prev := parallel.SetJobs(jobs)
		defer parallel.SetJobs(prev)
		m, err := NewAutoencoder(DefaultConfig(8))
		if err != nil {
			t.Fatal(err)
		}
		report, err := m.TrainJoint(seqs, TrainOptions{Steps: 10, K: 3, Batch: batch, Reassign: 5})
		if err != nil {
			t.Fatal(err)
		}
		return report, m.Params()
	}
	for batch := 1; batch <= 8; batch++ {
		serialReport, serialParams := train(1, batch)
		report, params := train(8, batch)
		if !reflect.DeepEqual(serialReport, report) {
			t.Fatalf("batch=%d: report diverged across jobs", batch)
		}
		for i, p := range params {
			if !reflect.DeepEqual(serialParams[i].W, p.W) {
				t.Fatalf("batch=%d: param %s weights diverged", batch, p.Name)
			}
		}
	}
}
