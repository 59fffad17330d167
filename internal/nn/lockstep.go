package nn

// Lockstep lane-fused training (DESIGN.md §14). A lane tile computes the
// gradients of up to laneWidth batch slots together. The forward sweep
// runs each lane through the shared weights with the whole-matrix
// f64.AxpyRows kernel. The backward sweep is the fused part: per
// timestep, the lanes' pre-activation gradients are packed
// lane-interleaved and one f64.DotRows4 pass over each weight matrix
// advances every lane's serial dot chains together, so each weight row
// is loaded once for all lanes. Weight-gradient updates are deferred and
// applied once per layer with f64.GradRowsT.
//
// Exactness: fusion only interleaves *independent* per-lane operation
// chains. Each lane keeps its own pre-activation, gate, gradient, and
// accumulator buffers, and within a lane every element still receives
// its contributions in exactly the scalar path's order, with the
// load-bearing xi == 0 / g == 0 skips applied per lane. Each output
// element has one serial owner, so results are bit-identical to the
// per-slot stepIn at any lane count, batch size, or -jobs setting. A
// lane that is absent from the tile, or past its own T at a timestep,
// feeds a zero gradient row to the fused kernels and its results land
// in a discard row, so it touches no lane's buffers.

import (
	"runtime"

	"repro/internal/f64"
	"repro/internal/parallel"
)

// laneWidth is the maximum number of batch lanes in one tile — the lane
// count f64.DotRows4 carries through one weight-row stream.
const laneWidth = 4

// hwWorkers returns the number of OS-parallel workers worth spawning:
// the configured job count clamped to the machine's usable cores.
// Tiling and worker counts never affect results (each lane's chain is
// independent), only scheduling.
func hwWorkers() int {
	w := parallel.Jobs()
	if mp := runtime.GOMAXPROCS(0); w > mp {
		w = mp
	}
	if w < 1 {
		w = 1
	}
	return w
}

// tileWidth picks the lane count per tile for a batch: cores are filled
// first (tiles = workers), then leftover batch width is fused into
// lanes, clamped to the kernels' laneWidth.
func tileWidth(batch int) int {
	w := (batch + hwWorkers() - 1) / hwWorkers()
	if w > laneWidth {
		w = laneWidth
	}
	if w < 1 {
		w = 1
	}
	return w
}

// sized returns buf resliced to n elements, reallocating only when its
// capacity falls short (the first call at a new shape).
func sized(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// laneLSTMBackward runs up to laneWidth lanes of one LSTM layer's BPTT
// in lockstep. Weight rows are shared across lanes (shadow params alias
// the master's W); each lane accumulates into its own Grad buffers, so
// every gradient element keeps one serial owner.
//
// Every timestep is one Interleave4 and two DotRows4 passes, whatever
// the lane count and lengths: a lane that is absent (k >= n) or already
// past its own T feeds the shared zero dPre row and writes its dot
// products to a discard row. The weight-gradient updates are deferred:
// lane k's timestep t is stashed in slot st.n-1-t, and one GradRowsT
// pass per Grad matrix applies the slots in ascending order — the
// descending-t order the scalar LSTMState.Backward runs. Splitting the
// updates off the dots is exact because the two touch disjoint arrays
// (Grad vs W) and nothing reads Grad during the sweep.
//
//sdam:noalloc
func laneLSTMBackward(sts []*LSTMState, dHs [][][]float64, lsc *laneScratch) {
	n := len(sts)
	l0 := sts[0].lstm
	H, in := l0.Hidden, l0.In
	G := 4 * H
	maxT := 0
	for _, st := range sts {
		clear(st.dhNext)
		clear(st.dcNext)
		maxT = max(maxT, st.n)
	}
	lsc.aos = sized(lsc.aos, laneWidth*G)
	lsc.zero = sized(lsc.zero, G) // never written, so it stays zero
	lsc.discard = sized(lsc.discard, max(in, H))
	// Deferred-gradient save areas: lane k's slot s lives at row
	// k*maxT+s.
	lsc.gsave = sized(lsc.gsave, n*maxT*G)
	lsc.xsave = sized(lsc.xsave, n*maxT*in)
	lsc.hsave = sized(lsc.hsave, n*maxT*H)

	var gs, dxs, dhs [laneWidth][]float64
	for t := maxT - 1; t >= 0; t-- {
		for k := range gs {
			gs[k], dxs[k], dhs[k] = lsc.zero, lsc.discard[:in], lsc.discard[:H]
			if k >= n || t >= sts[k].n {
				continue
			}
			st := sts[k]
			s := &st.steps[t]
			copy(st.dh, st.dhNext)
			if t < len(dHs[k]) && dHs[k][t] != nil {
				f64.Add(st.dh, dHs[k][t])
			}
			f64.LSTMGateBackward(st.dPre, st.dc, st.dh, st.dcNext, s.i, s.f, s.g, s.o, s.tc, s.cPrev)
			f64.AddSkip(st.lstm.B.Grad, st.dPre)
			r := k*maxT + st.n - 1 - t
			copy(lsc.gsave[r*G:(r+1)*G], st.dPre)
			copy(lsc.xsave[r*in:(r+1)*in], s.x)
			copy(lsc.hsave[r*H:(r+1)*H], s.hPrev)
			// dhNext was consumed into dh above, so DotRows4 can write the
			// next step's dhPrev over it in place, as the scalar Backward.
			gs[k], dxs[k], dhs[k] = st.dPre, st.dxs[t], st.dhNext
		}
		f64.Interleave4(lsc.aos, gs[0], gs[1], gs[2], gs[3])
		f64.DotRows4(l0.Wx.W, lsc.aos, dxs[0], dxs[1], dxs[2], dxs[3], G)
		f64.DotRows4(l0.Wh.W, lsc.aos, dhs[0], dhs[1], dhs[2], dhs[3], G)
		for _, st := range sts {
			if t < st.n {
				f64.Mul(st.dcNext, st.dc, st.steps[t].f)
			}
		}
	}
	for k, st := range sts {
		lo, hi := k*maxT, k*maxT+st.n
		g := lsc.gsave[lo*G : hi*G]
		f64.GradRowsT(st.lstm.Wx.Grad, g, lsc.xsave[lo*in:hi*in], in, G, st.n)
		f64.GradRowsT(st.lstm.Wh.Grad, g, lsc.hsave[lo*H:hi*H], H, G, st.n)
	}
}

// laneScratch holds one lane tile's per-layer buffers so stack sweeps
// allocate nothing in steady state.
type laneScratch struct {
	states  [laneWidth]*LSTMState
	cur     [laneWidth][][]float64
	aos     []float64 // lane-interleaved dPre for DotRows4
	zero    []float64 // the dPre row of an absent or finished lane
	discard []float64 // DotRows4 output row of an absent or finished lane
	gsave   []float64 // deferred-gradient dPre slots (lane-major, then slot)
	xsave   []float64 // deferred-gradient x slots
	hsave   []float64 // deferred-gradient hPrev slots
}

// stackForward runs n lanes through the stack; after the call lsc.cur[k]
// holds lane k's top-layer hidden rows. Lanes share no forward work, so
// each runs the stack's own ForwardIn.
//
//sdam:noalloc
func (lsc *laneScratch) stackForward(s *Stack, sts []*StackState, xss [][][]float64) {
	for k, st := range sts {
		lsc.cur[k] = s.ForwardIn(st, xss[k])
	}
}

// stackBackward propagates n lanes' top-layer hidden gradients down the
// stack; after the call lsc.cur[k] holds lane k's input gradients.
//
//sdam:noalloc
func (lsc *laneScratch) stackBackward(sts []*StackState, dHs [][][]float64) {
	n := len(sts)
	copy(lsc.cur[:n], dHs)
	for li := len(sts[0].states) - 1; li >= 0; li-- {
		for k := 0; k < n; k++ {
			lsc.states[k] = sts[k].states[li]
		}
		laneLSTMBackward(lsc.states[:n], lsc.cur[:n], lsc)
		for k := 0; k < n; k++ {
			lsc.cur[k] = lsc.states[k].dxs[:lsc.states[k].n]
		}
	}
}

// laneTile is one lockstep group of contiguous batch slots [lo, hi).
// Slot b's gradients always land in slot b's shadow buffers no matter
// how tiles are scheduled, so the trainer's fixed slot-order reduction
// is untouched.
type laneTile struct {
	tr      *trainer
	lo, hi  int
	lsc     laneScratch
	sstates [laneWidth]*StackState
	xss     [laneWidth][][]float64
	dss     [laneWidth][][]float64
}

// run computes the gradients of the tile's slots for one optimizer
// step, the lockstep replacement for per-slot stepIn calls: the encoder
// and decoder backward sweeps are lane-fused, everything else runs per
// lane. Per-slot losses land in tr.losses.
//
//sdam:noalloc
func (ti *laneTile) run(seqs []Sequence, idx []int, centroids [][]float64, assign []int, lambda float64) {
	tr := ti.tr
	n := ti.hi - ti.lo
	E := tr.master.cfg.EmbDim

	// Input embeddings, then the encoder sweep.
	for k := 0; k < n; k++ {
		b := ti.lo + k
		trainSteps.Add(1)
		obsTrainSteps.Add(1)
		sc := tr.scr[b]
		ti.xss[k] = tr.slots[b].embedInputs(sc, seqs[idx[b]])
		ti.sstates[k] = sc.enc
		sc.fwd.encState = sc.enc
	}
	ti.lsc.stackForward(tr.master.enc, ti.sstates[:n], ti.xss[:n])

	// The decoder receives each lane's embedding at every step
	// (conditioning by repetition); its Wx product dedups per lane.
	for k := 0; k < n; k++ {
		sc := tr.scr[ti.lo+k]
		outs := ti.lsc.cur[k]
		sc.fwd.h = outs[len(outs)-1]
		decIn := sc.decIn[:len(outs)]
		for t := range decIn {
			decIn[t] = sc.fwd.h
		}
		ti.xss[k] = decIn
		ti.sstates[k] = sc.dec
		sc.fwd.decState = sc.dec
	}
	ti.lsc.stackForward(tr.master.dec, ti.sstates[:n], ti.xss[:n])

	// Output layer forward + backward per lane, fused per timestep: the
	// probs for step t are fully computed before their backward runs,
	// and out.Grad still accumulates in ascending-t order, so the bits
	// match the separate forward-then-backward phases.
	for k := 0; k < n; k++ {
		b := ti.lo + k
		s := seqs[idx[b]]
		sc := tr.scr[b]
		slot := tr.slots[b]
		f := &sc.fwd
		f.decOuts = ti.lsc.cur[k]
		T := len(s.Deltas)
		nBits := float64(T * slot.cfg.DeltaBits)
		f.logits = sc.logitsAll[:T]
		f.probs = sc.probsAll[:T]
		dDecOuts := sc.dDecOuts[:T]
		dLogit := sc.dLogit
		for t, hOut := range f.decOuts {
			slot.out.ForwardIn(f.logits[t], hOut)
			p := f.probs[t]
			bits := f.bitVecs[t]
			for j, z := range f.logits[t] {
				pv := sigmoid(z)
				p[j] = pv
				// d|p-y|/dz = sign(p-y)·p·(1-p), as in stepIn.
				sign := 1.0
				if pv < bits[j] {
					sign = -1
				}
				dLogit[j] = sign * pv * (1 - pv) / nBits
			}
			slot.out.BackwardIn(dDecOuts[t], hOut, dLogit)
		}
		ti.dss[k] = dDecOuts
	}

	// Lane-fused decoder backward, then the per-lane embedding-gradient
	// fan-in, loss, and clustering pull.
	ti.lsc.stackBackward(ti.sstates[:n], ti.dss[:n])
	for k := 0; k < n; k++ {
		b := ti.lo + k
		i := idx[b]
		sc := tr.scr[b]
		f := &sc.fwd
		T := len(seqs[i].Deltas)
		dh := sc.dh
		for j := range dh {
			dh[j] = 0
		}
		for _, d := range ti.lsc.cur[k] {
			f64.Add(dh, d)
		}
		loss := f.reconLoss()
		if centroids != nil {
			centroid := centroids[assign[i]]
			var cl float64
			for j := range f.h {
				diff := f.h[j] - centroid[j]
				dh[j] += lambda * 2 * diff
				cl += diff * diff
			}
			loss += lambda * cl
		}
		tr.losses[b] = loss
		dEncOuts := sc.dEncOuts[:T]
		for t := range dEncOuts {
			dEncOuts[t] = nil
		}
		dEncOuts[T-1] = dh
		ti.dss[k] = dEncOuts
		ti.sstates[k] = sc.enc
	}

	// Lane-fused encoder backward, then the per-lane split of the
	// concatenated embedding gradient.
	ti.lsc.stackBackward(ti.sstates[:n], ti.dss[:n])
	for k := 0; k < n; k++ {
		b := ti.lo + k
		s := seqs[idx[b]]
		sc := tr.scr[b]
		slot := tr.slots[b]
		for t, d := range ti.lsc.cur[k] {
			slot.deltaEmb.BackwardIn(nil, sc.fwd.bitVecs[t], d[:E])
			vid := s.VIDs[t] % slot.cfg.NumVIDs
			f64.Add(slot.vidEmb.Grad[vid*E:(vid+1)*E], d[E:])
		}
	}
}
