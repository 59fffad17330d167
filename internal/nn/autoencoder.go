package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"repro/internal/f64"
	"repro/internal/geom"
	"repro/internal/kmeans"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// trainSteps counts sequence-gradient evaluations (stepIn calls)
// process-wide. The selection cache's tests read it to prove a cached
// selection performed zero additional training work.
var trainSteps atomic.Uint64

// obsTrainSteps mirrors trainSteps into the obs registry — the
// "selection cache hit ⇒ zero optimizer steps" counter equality. The
// call sites are //sdam:noalloc (stepIn, laneTile.run); obs fast paths
// allocate nothing and the noalloc analyzer knows they are allowed.
var obsTrainSteps = obs.NewCounter("nn.train_steps", "steps", "per-sequence forward/backward training evaluations")

// TrainSteps returns the number of training-step (per-sequence
// forward/backward) evaluations performed by this process so far.
func TrainSteps() uint64 { return trainSteps.Load() }

// Sequence is one training sample for the embedding model: a window of
// consecutive (Δ, VID) pairs from the profiled access trace (Fig 9).
type Sequence struct {
	Deltas []uint32 // 15-bit XOR deltas between consecutive accesses
	VIDs   []int
}

// Config sizes the autoencoder. The paper's production values (Table 2:
// 256×2 LSTM, 256-dim embedding, 500k steps) are scaled down by default
// to laptop-budget sizes; the architecture is identical.
type Config struct {
	DeltaBits int // width of Δ; geom.OffsetBits in this system
	NumVIDs   int // vocabulary of variable IDs
	EmbDim    int // per-input embedding size
	Hidden    int // LSTM hidden size == learned-embedding dimension
	Layers    int // stacked LSTM layers per coder (Table 2: 2); default 1
	Seed      int64
}

func (c Config) layers() int {
	if c.Layers <= 0 {
		return 1
	}
	return c.Layers
}

// DefaultConfig returns the scaled-down training configuration.
func DefaultConfig(numVIDs int) Config {
	return Config{DeltaBits: geom.OffsetBits, NumVIDs: numVIDs, EmbDim: 16, Hidden: 32, Layers: 1, Seed: 1}
}

// PaperConfig returns Table 2's full-size hyper-parameters, for
// documentation and the profiling-cost experiment's extrapolation.
func PaperConfig(numVIDs int) Config {
	return Config{DeltaBits: geom.OffsetBits, NumVIDs: numVIDs, EmbDim: 256, Hidden: 256, Layers: 2, Seed: 1}
}

// Autoencoder is the embedding-LSTM model of Fig 9: Δ and VID are
// embedded separately, concatenated, fed to an LSTM encoder whose final
// hidden state is the sequence embedding; an LSTM decoder conditioned on
// that embedding reconstructs the Δ bit-vectors, trained with the L1
// reconstruction loss of Eq. 3 and optionally a joint clustering loss.
type Autoencoder struct {
	cfg      Config
	deltaEmb *Linear // DeltaBits → EmbDim (sum of per-bit embeddings)
	vidEmb   *Param  // NumVIDs × EmbDim lookup
	enc      *Stack  // 2·EmbDim → Hidden (Layers deep)
	dec      *Stack  // Hidden → Hidden (Layers deep)
	out      *Linear // Hidden → DeltaBits logits
}

// NewAutoencoder builds the model.
func NewAutoencoder(cfg Config) (*Autoencoder, error) {
	if cfg.DeltaBits <= 0 || cfg.NumVIDs <= 0 || cfg.EmbDim <= 0 || cfg.Hidden <= 0 {
		return nil, fmt.Errorf("nn: invalid config %+v", cfg)
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	return &Autoencoder{
		cfg:      cfg,
		deltaEmb: NewLinear("deltaEmb", cfg.DeltaBits, cfg.EmbDim, r),
		vidEmb:   NewParam("vidEmb", cfg.NumVIDs, cfg.EmbDim, r),
		enc:      NewStack("enc", 2*cfg.EmbDim, cfg.Hidden, cfg.layers(), r),
		dec:      NewStack("dec", cfg.Hidden, cfg.Hidden, cfg.layers(), r),
		out:      NewLinear("out", cfg.Hidden, cfg.DeltaBits, r),
	}, nil
}

// Params returns every learnable tensor.
func (m *Autoencoder) Params() []*Param {
	ps := m.deltaEmb.Params()
	ps = append(ps, m.vidEmb)
	ps = append(ps, m.enc.Params()...)
	ps = append(ps, m.dec.Params()...)
	ps = append(ps, m.out.Params()...)
	return ps
}

// shadow returns an Autoencoder sharing m's weights but with private
// gradient buffers — one batch slot's view during parallel training.
func (m *Autoencoder) shadow() *Autoencoder {
	return &Autoencoder{
		cfg:      m.cfg,
		deltaEmb: m.deltaEmb.shadow(),
		vidEmb:   shadowParam(m.vidEmb),
		enc:      m.enc.shadow(),
		dec:      m.dec.shadow(),
		out:      m.out.shadow(),
	}
}

// EmbeddingDim returns the dimensionality of learned embeddings.
func (m *Autoencoder) EmbeddingDim() int { return m.cfg.Hidden }

// forward caches everything a backward pass needs. Its slices alias the
// owning stepScratch and are valid until that scratch's next use.
type fwd struct {
	bitVecs  [][]float64
	embs     [][]float64 // concatenated Δ/VID embeddings per step
	encState *StackState
	h        []float64 // final encoder hidden = sequence embedding
	decState *StackState
	decOuts  [][]float64
	logits   [][]float64
	probs    [][]float64
}

// stepScratch is the reusable workspace of one training/embedding
// worker: every buffer a forward and backward pass needs, allocated
// once and rewritten per call, so the steady-state step performs zero
// allocations. Each concurrent worker (or batch slot) owns its own.
type stepScratch struct {
	fwd
	maxT int

	bitsAll   [][]float64
	embsAll   [][]float64
	logitsAll [][]float64
	probsAll  [][]float64
	decIn     [][]float64
	dDecOuts  [][]float64
	dEncOuts  [][]float64
	enc, dec  *StackState
	dLogit    []float64
	dh        []float64
}

// newScratch allocates a workspace for sequences up to maxT steps.
func (m *Autoencoder) newScratch(maxT int) *stepScratch {
	sc := &stepScratch{}
	sc.alloc(m, maxT)
	return sc
}

func (sc *stepScratch) alloc(m *Autoencoder, maxT int) {
	if maxT < 1 {
		maxT = 1
	}
	DB, E, H := m.cfg.DeltaBits, m.cfg.EmbDim, m.cfg.Hidden
	sc.maxT = maxT
	mat := func(cols int) [][]float64 {
		buf := make([]float64, maxT*cols)
		rows := make([][]float64, maxT)
		for t := range rows {
			rows[t] = buf[t*cols : (t+1)*cols]
		}
		return rows
	}
	sc.bitsAll = mat(DB)
	sc.embsAll = mat(2 * E)
	sc.logitsAll = mat(DB)
	sc.probsAll = mat(DB)
	sc.dDecOuts = mat(H)
	sc.decIn = make([][]float64, maxT)
	sc.dEncOuts = make([][]float64, maxT)
	sc.enc = m.enc.NewState(maxT)
	sc.dec = m.dec.NewState(maxT)
	sc.dLogit = make([]float64, DB)
	sc.dh = make([]float64, H)
}

func (sc *stepScratch) ensure(m *Autoencoder, T int) {
	if T > sc.maxT {
		sc.alloc(m, T)
	}
}

// embedInputs fills the per-step bit vectors and concatenated Δ/VID
// embeddings for s into the scratch, returning the input rows.
func (m *Autoencoder) embedInputs(sc *stepScratch, s Sequence) [][]float64 {
	E := m.cfg.EmbDim
	T := len(s.Deltas)
	sc.ensure(m, T)
	f := &sc.fwd
	f.bitVecs = sc.bitsAll[:T]
	f.embs = sc.embsAll[:T]
	for t, d := range s.Deltas {
		bits := f.bitVecs[t]
		for b := 0; b < m.cfg.DeltaBits; b++ {
			bits[b] = float64(d >> b & 1)
		}
		cat := f.embs[t]
		m.deltaEmb.ForwardIn(cat[:E], bits)
		vid := s.VIDs[t] % m.cfg.NumVIDs
		copy(cat[E:], m.vidEmb.W[vid*E:(vid+1)*E])
	}
	return f.embs
}

// encodeIn runs the encoder half only — all an embedding needs; the
// decoder never feeds back into h, so skipping it is bit-identical.
// The returned vector aliases the scratch.
func (m *Autoencoder) encodeIn(sc *stepScratch, s Sequence) []float64 {
	embs := m.embedInputs(sc, s)
	encOuts := m.enc.ForwardIn(sc.enc, embs)
	sc.h = encOuts[len(encOuts)-1]
	return sc.h
}

// forwardIn runs the full forward pass through the scratch.
func (m *Autoencoder) forwardIn(sc *stepScratch, s Sequence) *fwd {
	T := len(s.Deltas)
	f := &sc.fwd
	embs := m.embedInputs(sc, s)
	f.encState = sc.enc
	encOuts := m.enc.ForwardIn(sc.enc, embs)
	f.h = encOuts[len(encOuts)-1]

	// The decoder receives the embedding at every step (conditioning by
	// repetition, the standard seq2seq autoencoder trick).
	decIn := sc.decIn[:T]
	for t := range decIn {
		decIn[t] = f.h
	}
	f.decState = sc.dec
	f.decOuts = m.dec.ForwardIn(sc.dec, decIn)
	f.logits = sc.logitsAll[:T]
	f.probs = sc.probsAll[:T]
	for t, hOut := range f.decOuts {
		m.out.ForwardIn(f.logits[t], hOut)
		p := f.probs[t]
		for j, z := range f.logits[t] {
			p[j] = sigmoid(z)
		}
	}
	return f
}

// forward is forwardIn through a fresh workspace, for callers (tests,
// gradient checks) that want an independent cache per call.
func (m *Autoencoder) forward(s Sequence) *fwd {
	sc := m.newScratch(len(s.Deltas))
	return m.forwardIn(sc, s)
}

// reconLoss returns the Eq. 3 L1 reconstruction loss of a cached
// forward pass, averaged per bit.
func (f *fwd) reconLoss() float64 {
	var loss float64
	var n int
	for t, p := range f.probs {
		for j := range p {
			loss += math.Abs(p[j] - f.bitVecs[t][j])
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return loss / float64(n)
}

// Embed returns the learned embedding of a sequence (inference only).
func (m *Autoencoder) Embed(s Sequence) []float64 {
	if len(s.Deltas) == 0 {
		return make([]float64, m.cfg.Hidden)
	}
	sc := m.newScratch(len(s.Deltas))
	h := m.encodeIn(sc, s)
	out := make([]float64, len(h))
	copy(out, h)
	return out
}

// stepIn runs one training example through the scratch: forward, loss,
// backward. centroid may be nil (pure reconstruction); otherwise the
// joint objective L = L_reconstruct + λ·‖h − μ‖² from §6.2 step 2
// applies. Gradients accumulate into m's params (the master model when
// serial, a shadow slot when batched). Steady state allocates nothing.
//
//sdam:noalloc
func (m *Autoencoder) stepIn(sc *stepScratch, s Sequence, centroid []float64, lambda float64) float64 {
	trainSteps.Add(1)
	obsTrainSteps.Add(1)
	f := m.forwardIn(sc, s)
	T := len(s.Deltas)
	nBits := float64(T * m.cfg.DeltaBits)

	// Output layer backward: d|p-y|/dz = sign(p-y)·p·(1-p).
	dDecOuts := sc.dDecOuts[:T]
	dLogit := sc.dLogit
	for t := range f.probs {
		for j, p := range f.probs[t] {
			sign := 1.0
			if p < f.bitVecs[t][j] {
				sign = -1
			}
			dLogit[j] = sign * p * (1 - p) / nBits
		}
		m.out.BackwardIn(dDecOuts[t], f.decOuts[t], dLogit)
	}
	dDecIn := f.decState.Backward(dDecOuts)

	// The embedding h received gradient from every decoder step plus,
	// under the joint objective, the clustering pull 2λ(h−μ).
	dh := sc.dh
	for j := range dh {
		dh[j] = 0
	}
	for _, d := range dDecIn {
		for j, g := range d {
			dh[j] += g
		}
	}
	loss := f.reconLoss()
	if centroid != nil {
		var cl float64
		for j := range f.h {
			diff := f.h[j] - centroid[j]
			dh[j] += lambda * 2 * diff
			cl += diff * diff
		}
		loss += lambda * cl
	}

	dEncOuts := sc.dEncOuts[:T]
	for t := range dEncOuts {
		dEncOuts[t] = nil
	}
	dEncOuts[T-1] = dh
	dEmb := f.encState.Backward(dEncOuts)

	// Embedding backward: split the concatenated gradient.
	E := m.cfg.EmbDim
	for t, d := range dEmb {
		m.deltaEmb.BackwardIn(nil, f.bitVecs[t], d[:E])
		vid := s.VIDs[t] % m.cfg.NumVIDs
		for j := 0; j < E; j++ {
			m.vidEmb.Grad[vid*E+j] += d[E+j]
		}
	}
	return loss
}

// step is stepIn through a fresh workspace (tests, gradient checks).
func (m *Autoencoder) step(s Sequence, centroid []float64, lambda float64) float64 {
	return m.stepIn(m.newScratch(len(s.Deltas)), s, centroid, lambda)
}

// TrainReport summarizes a training run.
type TrainReport struct {
	Steps       int
	InitialLoss float64
	FinalLoss   float64
	ClusterLoss float64
	Centroids   [][]float64
	Assignment  []int // per input sequence
	// Embeddings holds the final post-training embedding of every input
	// sequence — the vectors the final clustering ran on. Callers that
	// need per-sequence embeddings (the DL selector) reuse these instead
	// of re-running an inference sweep.
	Embeddings [][]float64
}

// TrainOptions drives TrainJoint.
type TrainOptions struct {
	Steps    int     // optimizer steps; default 400
	LR       float64 // default 0.001 (Table 2)
	Lambda   float64 // joint-loss weight; default 0.01 (Table 2)
	K        int     // clusters; required for the joint phase
	Reassign int     // recompute K-Means every this many joint steps; default 50
	Seed     int64
	// Batch is the number of sequences per optimizer step; default 1
	// (the classic stochastic loop). With Batch > 1 the per-sequence
	// gradients are computed concurrently into per-slot buffers and
	// reduced in slot order — the mean batch gradient is bit-identical
	// at any worker count because the reduction order is fixed.
	Batch int
}

// trainer owns the per-slot shadows and scratches of one TrainJoint
// run. Slot b's gradient always accumulates in slot b's buffers no
// matter which worker computes it, so the reduction order — slot 0
// first, then 1, ... — is independent of scheduling.
type trainer struct {
	master  *Autoencoder
	slots   []*Autoencoder
	scr     []*stepScratch
	mParams []*Param
	sParams [][]*Param
	losses  []float64
	maxT    int
	tiles   []*laneTile    // lockstep lane groups over the batch slots
	embScr  []*stepScratch // per-worker scratch for embedding sweeps
}

// newTrainer sizes a trainer for batch slots of sequences up to maxT
// steps, grouping the slots into lane tiles of width lanes (production
// passes tileWidth(batch); benchmarks pin it).
func newTrainer(m *Autoencoder, batch, maxT, lanes int) *trainer {
	tr := &trainer{master: m, maxT: maxT, losses: make([]float64, batch)}
	if batch == 1 {
		// Serial fast path: gradients accumulate directly into the
		// master, exactly the classic loop.
		tr.slots = []*Autoencoder{m}
		tr.scr = []*stepScratch{m.newScratch(maxT)}
		return tr
	}
	tr.mParams = m.Params()
	for b := 0; b < batch; b++ {
		sh := m.shadow()
		tr.slots = append(tr.slots, sh)
		tr.scr = append(tr.scr, sh.newScratch(maxT))
		tr.sParams = append(tr.sParams, sh.Params())
	}
	// Partition the batch slots into contiguous lockstep tiles. The
	// partition only affects scheduling and weight-stream reuse, never
	// bits: slot b's gradient lands in slot b's buffers regardless.
	for lo := 0; lo < batch; lo += lanes {
		hi := lo + lanes
		if hi > batch {
			hi = batch
		}
		tr.tiles = append(tr.tiles, &laneTile{tr: tr, lo: lo, hi: hi})
	}
	return tr
}

// step runs one optimizer step's gradient computation over the batch
// indices idx, leaving the summed (mean, for Batch > 1) gradient in the
// master's params and returning the mean loss. centroids/assign supply
// the joint-phase clustering pull; nil means reconstruction only.
func (tr *trainer) step(seqs []Sequence, idx []int, centroids [][]float64, assign []int, lambda float64) float64 {
	centroidOf := func(i int) []float64 {
		if centroids == nil {
			return nil
		}
		return centroids[assign[i]]
	}
	if len(idx) == 1 {
		return tr.master.stepIn(tr.scr[0], seqs[idx[0]], centroidOf(idx[0]), lambda)
	}
	// Lockstep lane tiles replace the per-sequence fan-out: each tile
	// advances its slots through the network together, and its backward
	// sweeps stream every weight row once across its lanes (lockstep.go).
	// Tiles run concurrently when there is more than one; each batch
	// slot still owns its shadow model and scratch.
	if len(tr.tiles) == 1 {
		tr.tiles[0].run(seqs, idx, centroids, assign, lambda)
	} else {
		parallel.Map(tr.tiles, func(_ int, ti *laneTile) (struct{}, error) {
			ti.run(seqs, idx, centroids, assign, lambda)
			return struct{}{}, nil
		})
	}
	// Ordered reduction: slot 0's gradient first, then slot 1's, ...
	// — a fixed float summation order regardless of which workers
	// computed which slots — then scale to the batch mean. The zero
	// skip both preserves bit-patterns (adding a zero could flip a -0
	// accumulator) and makes the sparse vidEmb rows cheap.
	inv := 1 / float64(len(idx))
	for pi, p := range tr.mParams {
		pg := p.Grad
		for b := range tr.slots {
			f64.ReduceSkip(pg, tr.sParams[b][pi].Grad)
		}
		f64.ScaleSkip(pg, inv)
	}
	var sum float64
	for _, l := range tr.losses {
		sum += l
	}
	return sum * inv
}

// embedAll computes the embedding of every sequence, running the
// encoder over the sequences on the worker pool with per-worker
// scratch. Each output slot is written independently, so the result is
// bit-identical at any worker count. Empty sequences keep zero rows.
func (tr *trainer) embedAll(seqs []Sequence) [][]float64 {
	out := make([][]float64, len(seqs))
	dim := tr.master.cfg.Hidden
	buf := make([]float64, len(seqs)*dim)
	for i := range out {
		out[i] = buf[i*dim : (i+1)*dim]
	}
	workers := min(hwWorkers(), len(seqs))
	for len(tr.embScr) < workers {
		tr.embScr = append(tr.embScr, tr.master.newScratch(tr.maxT))
	}
	parallel.MapNWorker(workers, seqs, func(w, i int, s Sequence) (struct{}, error) {
		if len(s.Deltas) > 0 {
			copy(out[i], tr.master.encodeIn(tr.embScr[w], s))
		}
		return struct{}{}, nil
	})
	return out
}

// TrainJoint implements §6.2's two-phase recipe: (1) train the
// autoencoder on reconstruction alone, (2) run K-Means on the learned
// embeddings and continue training with the joint loss, periodically
// refreshing the clustering. It returns the final clustering of the
// input sequences.
//
// Every stage runs on the parallel worker pool with bit-identical
// results at any -jobs count: per-sequence gradients reduce in fixed
// slot order before each parameter update, and embedding sweeps write
// disjoint output slots. With Batch == 1 the loop degenerates to the
// classic serial recipe.
func (m *Autoencoder) TrainJoint(seqs []Sequence, opts TrainOptions) (TrainReport, error) {
	if len(seqs) == 0 {
		return TrainReport{}, fmt.Errorf("nn: no training sequences")
	}
	if opts.Steps <= 0 {
		opts.Steps = 400
	}
	if opts.LR <= 0 {
		opts.LR = 0.001
	}
	if opts.Lambda <= 0 {
		opts.Lambda = 0.01
	}
	if opts.K <= 0 {
		opts.K = 4
	}
	if opts.Reassign <= 0 {
		opts.Reassign = 50
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Batch <= 0 {
		opts.Batch = 1
	}
	r := rand.New(rand.NewSource(opts.Seed))
	opt := NewAdam(m.Params(), opts.LR)

	maxT := 1
	for _, s := range seqs {
		if len(s.Deltas) > maxT {
			maxT = len(s.Deltas)
		}
	}
	tr := newTrainer(m, opts.Batch, maxT, tileWidth(opts.Batch))
	idx := make([]int, opts.Batch)
	draw := func() {
		// Batch indices are drawn serially on the caller's goroutine, so
		// the RNG stream is identical at any worker count.
		for b := range idx {
			idx[b] = r.Intn(len(seqs))
		}
	}

	var report TrainReport
	report.Steps = opts.Steps
	phase1 := opts.Steps / 2

	for step := 0; step < phase1; step++ {
		draw()
		loss := tr.step(seqs, idx, nil, nil, 0)
		if step == 0 {
			report.InitialLoss = loss
		}
		opt.Step()
	}

	es := tr.embedAll(seqs)
	km, err := kmeans.Cluster(es, opts.K, kmeans.Options{Seed: opts.Seed})
	if err != nil {
		return report, err
	}

	kmFresh := true // no parameter update since the last sweep?
	for step := phase1; step < opts.Steps; step++ {
		draw()
		loss := tr.step(seqs, idx, km.Centroids, km.Assignment, opts.Lambda)
		opt.Step()
		report.FinalLoss = loss
		kmFresh = false
		if (step-phase1+1)%opts.Reassign == 0 {
			es = tr.embedAll(seqs)
			if km, err = kmeans.Cluster(es, opts.K, kmeans.Options{Seed: opts.Seed}); err != nil {
				return report, err
			}
			kmFresh = true
		}
	}
	// The final clustering re-embeds only if parameters moved since the
	// last sweep — when the last joint step coincided with a reassign,
	// recomputing would reproduce the same embeddings bit-for-bit.
	if !kmFresh {
		es = tr.embedAll(seqs)
		if km, err = kmeans.Cluster(es, opts.K, kmeans.Options{Seed: opts.Seed}); err != nil {
			return report, err
		}
	}
	report.Centroids = km.Centroids
	report.Assignment = km.Assignment
	report.ClusterLoss = km.Loss
	report.Embeddings = es
	if report.FinalLoss == 0 {
		report.FinalLoss = report.InitialLoss
	}
	return report, CheckFinite(m.Params())
}
