package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/f64"
)

// LSTM is a single-layer LSTM processing sequences step by step with
// full backpropagation through time. Gate layout follows the usual
// [input, forget, cell, output] convention.
type LSTM struct {
	In, Hidden int
	Wx         *Param // In×4H
	Wh         *Param // H×4H
	B          *Param // 1×4H
}

// NewLSTM creates an LSTM with forget-gate bias initialized to 1, the
// standard trick for gradient flow on short training budgets.
func NewLSTM(name string, in, hidden int, r *rand.Rand) *LSTM {
	l := &LSTM{
		In: in, Hidden: hidden,
		Wx: NewParam(name+".Wx", in, 4*hidden, r),
		Wh: NewParam(name+".Wh", hidden, 4*hidden, r),
		B:  NewParam(name+".b", 1, 4*hidden, r),
	}
	for j := hidden; j < 2*hidden; j++ { // forget gate slice
		l.B.W[j] = 1
	}
	return l
}

// Params returns the learnable tensors.
func (l *LSTM) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }

// shadow returns an LSTM sharing l's weights but accumulating gradients
// into private buffers — the per-slot view batched training reduces from.
func (l *LSTM) shadow() *LSTM {
	return &LSTM{In: l.In, Hidden: l.Hidden,
		Wx: shadowParam(l.Wx), Wh: shadowParam(l.Wh), B: shadowParam(l.B)}
}

// lstmStep caches one timestep's activations for BPTT.
type lstmStep struct {
	x          []float64
	hPrev      []float64
	cPrev      []float64
	i, f, g, o []float64 // post-nonlinearity gate values
	c, h       []float64
	tc         []float64 // tanh(c), cached so backward reuses the forward's bits
}

// Stack chains several LSTM layers (the "×2" in Table 2's network
// size): layer k's per-step hidden states feed layer k+1's inputs.
type Stack struct {
	layers []*LSTM
}

// NewStack creates n stacked LSTM layers; the first maps in→hidden, the
// rest hidden→hidden.
func NewStack(name string, in, hidden, n int, r *rand.Rand) *Stack {
	if n < 1 {
		n = 1
	}
	s := &Stack{}
	for k := 0; k < n; k++ {
		layerIn := hidden
		if k == 0 {
			layerIn = in
		}
		s.layers = append(s.layers, NewLSTM(fmt.Sprintf("%s.l%d", name, k), layerIn, hidden, r))
	}
	return s
}

// Params returns every layer's learnable tensors.
func (s *Stack) Params() []*Param {
	var ps []*Param
	for _, l := range s.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// shadow returns a Stack sharing weights with private gradients.
func (s *Stack) shadow() *Stack {
	sh := &Stack{}
	for _, l := range s.layers {
		sh.layers = append(sh.layers, l.shadow())
	}
	return sh
}

// StackState caches one forward pass through all layers. A state is
// reusable scratch: allocate once with NewState, then run any number of
// ForwardIn/Backward cycles through it without further allocation (the
// returned slices alias the state and are valid until its next use).
type StackState struct {
	states []*LSTMState
}

// NewState allocates reusable forward/backward scratch for sequences up
// to maxT steps (longer sequences grow the state transparently).
func (s *Stack) NewState(maxT int) *StackState {
	st := &StackState{}
	for _, l := range s.layers {
		st.states = append(st.states, l.NewState(maxT))
	}
	return st
}

// Forward runs the stack over a sequence, returning the cached state and
// the top layer's per-step hidden vectors. It allocates a fresh state;
// hot paths reuse one via NewState + ForwardIn.
func (s *Stack) Forward(xs [][]float64) (*StackState, [][]float64) {
	st := s.NewState(len(xs))
	return st, s.ForwardIn(st, xs)
}

// ForwardIn runs the stack through reusable scratch, returning the top
// layer's per-step hidden vectors (aliased into st; treat as read-only).
//
//sdam:noalloc
func (s *Stack) ForwardIn(st *StackState, xs [][]float64) [][]float64 {
	cur := xs
	for k, l := range s.layers {
		cur = l.ForwardIn(st.states[k], cur)
	}
	return cur
}

// Backward propagates top-layer hidden gradients down the stack and
// returns the input gradients (aliased into the state's scratch).
func (st *StackState) Backward(dH [][]float64) [][]float64 {
	cur := dH
	for k := len(st.states) - 1; k >= 0; k-- {
		cur = st.states[k].Backward(cur)
	}
	return cur
}

// LSTMState is the cached forward pass over one sequence plus the
// backward pass's scratch. States are reusable: one allocation serves
// any number of forward/backward cycles (the training loop's per-worker
// scratch), growing only if a longer sequence arrives.
type LSTMState struct {
	lstm  *LSTM
	n     int // timesteps of the last forward pass
	steps []lstmStep
	outs  [][]float64
	h0    []float64 // initial (zero) state; never written after creation
	c0    []float64
	pre   []float64 // forward scratch, fully rewritten each step
	xw    []float64 // B + x·Wx of the last distinct input row

	// Backward scratch, fully rewritten per call.
	dxs            [][]float64
	dh, dPre, dc   []float64
	dhNext, dcNext []float64
	gateBuf, dxBuf []float64 // backing arrays for steps[i]/dxs
}

// NewState allocates reusable scratch for sequences up to maxT steps.
func (l *LSTM) NewState(maxT int) *LSTMState {
	st := &LSTMState{
		lstm:   l,
		h0:     make([]float64, l.Hidden),
		c0:     make([]float64, l.Hidden),
		pre:    make([]float64, 4*l.Hidden),
		xw:     make([]float64, 4*l.Hidden),
		dh:     make([]float64, l.Hidden),
		dPre:   make([]float64, 4*l.Hidden),
		dc:     make([]float64, l.Hidden),
		dhNext: make([]float64, l.Hidden),
		dcNext: make([]float64, l.Hidden),
	}
	st.grow(maxT)
	return st
}

// grow extends the per-timestep buffers to hold at least maxT steps.
func (st *LSTMState) grow(maxT int) {
	if maxT <= len(st.steps) {
		return
	}
	H := st.lstm.Hidden
	in := st.lstm.In
	st.steps = make([]lstmStep, maxT)
	st.outs = make([][]float64, maxT)
	st.dxs = make([][]float64, maxT)
	st.gateBuf = make([]float64, maxT*7*H)
	st.dxBuf = make([]float64, maxT*in)
	for t := 0; t < maxT; t++ {
		buf := st.gateBuf[t*7*H : (t+1)*7*H]
		s := &st.steps[t]
		s.i = buf[0*H : 1*H]
		s.f = buf[1*H : 2*H]
		s.g = buf[2*H : 3*H]
		s.o = buf[3*H : 4*H]
		s.c = buf[4*H : 5*H]
		s.h = buf[5*H : 6*H]
		s.tc = buf[6*H : 7*H]
		st.dxs[t] = st.dxBuf[t*in : (t+1)*in]
	}
}

// Forward runs the LSTM over a sequence of input vectors starting from
// zero state and returns the cached state plus the per-step hidden
// vectors (aliased into the cache; treat as read-only). It allocates a
// fresh state; hot paths reuse one via NewState + ForwardIn.
func (l *LSTM) Forward(xs [][]float64) (*LSTMState, [][]float64) {
	st := l.NewState(len(xs))
	return st, l.ForwardIn(st, xs)
}

// ForwardIn runs the LSTM through reusable scratch. The math is
// identical to the allocating Forward — only the buffers' lifetimes
// changed — so results are bit-identical. Each weight matrix is applied
// with one f64.AxpyRows call per timestep, the same per-row Axpy chain
// without the per-row call overhead.
//
//sdam:noalloc
func (l *LSTM) ForwardIn(st *LSTMState, xs [][]float64) [][]float64 {
	st.grow(len(xs))
	st.n = len(xs)
	h, c := st.h0, st.c0
	pre := st.pre
	xw := st.xw
	for t, x := range xs {
		s := &st.steps[t]
		s.x = x
		s.hPrev = h
		s.cPrev = c
		if t > 0 && len(x) > 0 && &x[0] == &xs[t-1][0] {
			// Identical input row as the previous step (the decoder feeds
			// the same embedding at every step): B + x·Wx was snapshotted
			// below, so reusing it reproduces the same bits for free.
			copy(pre, xw)
		} else {
			copy(pre, l.B.W)
			// AxpyRows skips zero input rows; the skip is load-bearing,
			// since adding a zero row could flip a -0 accumulator to +0.
			f64.AxpyRows(l.Wx.W, pre, x)
			copy(xw, pre)
		}
		f64.AxpyRows(l.Wh.W, pre, h)
		f64.LSTMGates(s.i, s.f, s.g, s.o, s.c, s.h, s.tc, pre, c)
		h, c = s.h, s.c
		st.outs[t] = s.h
	}
	return st.outs[:len(xs)]
}

// Backward backpropagates per-step hidden-state gradients dH (same
// length as the forward sequence; nil entries mean zero gradient) and
// returns the per-step input gradients, aliased into the state's
// scratch (valid until the next Backward through this state). Parameter
// gradients accumulate into the LSTM's params.
func (st *LSTMState) Backward(dH [][]float64) [][]float64 {
	l := st.lstm
	H := l.Hidden
	dxs := st.dxs[:st.n]
	dhNext, dcNext := st.dhNext, st.dcNext
	for j := 0; j < H; j++ {
		dhNext[j] = 0
		dcNext[j] = 0
	}
	dh := st.dh     // scratch, fully rewritten each step
	dPre := st.dPre // scratch, fully rewritten each step
	dc := st.dc     // scratch, fully rewritten each step
	for t := st.n - 1; t >= 0; t-- {
		s := &st.steps[t]
		copy(dh, dhNext)
		if t < len(dH) && dH[t] != nil {
			f64.Add(dh, dH[t])
		}
		f64.LSTMGateBackward(dPre, dc, dh, dcNext, s.i, s.f, s.g, s.o, s.tc, s.cPrev)
		// Accumulate parameter grads and propagate to x, hPrev. The
		// loops nest row-major (weight rows are contiguous in memory);
		// each Grad element still receives exactly one contribution per
		// step and each dx/dhPrev element still sums in ascending-j
		// order, so results are bit-identical to the j-outer form. The
		// g == 0 skip inside the kernels is load-bearing for that
		// identity: adding a zero could flip a -0 accumulator to +0.
		dx := dxs[t]
		f64.AddSkip(l.B.Grad, dPre)
		for i, xi := range s.x {
			dx[i] = f64.GradDot(l.Wx.Grad[i*4*H:(i+1)*4*H], l.Wx.W[i*4*H:(i+1)*4*H], dPre, xi)
		}
		// dhNext is consumed (copied into dh) before this point, so the
		// next step's dhPrev can be written over it in place.
		for i, hi := range s.hPrev {
			dhNext[i] = f64.GradDot(l.Wh.Grad[i*4*H:(i+1)*4*H], l.Wh.W[i*4*H:(i+1)*4*H], dPre, hi)
		}
		f64.Mul(dcNext, dc, s.f)
	}
	return dxs
}
