package f64

import (
	"math"
	"math/rand"
	"testing"
)

// vec builds a deterministic test vector seasoned with the values the
// exactness pins care about: exact zeros (both signs) and denormal-ish
// magnitudes, so the skip/no-skip distinctions are exercised.
func vec(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch r.Intn(8) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = math.Copysign(0, -1)
		default:
			v[i] = (r.Float64()*2 - 1) * math.Pow(10, float64(r.Intn(7)-3))
		}
	}
	return v
}

func clone(x []float64) []float64 { return append([]float64(nil), x...) }

// eq compares two vectors bit for bit (±0 and NaN aware).
func eq(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: got %v (%#x) want %v (%#x)",
				name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func eqScalar(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: got %v (%#x) want %v (%#x)", name, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// axpyRef is the scalar loop Axpy replaced.
func axpyRef(dst, x []float64, a float64) {
	for j := range dst {
		dst[j] += a * x[j]
	}
}

func TestAxpyMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 3, 4, 7, 64, 129} {
		x := vec(r, n)
		a := r.Float64()*2 - 1
		got, want := vec(r, n), []float64(nil)
		want = clone(got)
		Axpy(got, x, a)
		axpyRef(want, x, a)
		eq(t, "Axpy", got, want)
	}
}

// gradDotRef is the scalar loop GradDot replaced, zero skip included.
func gradDotRef(grad, row, g []float64, xi float64) float64 {
	acc := 0.0
	for j, gj := range g {
		if gj == 0 {
			continue
		}
		grad[j] += xi * gj
		acc += row[j] * gj
	}
	return acc
}

func TestGradDotMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 4, 33, 128} {
		row, g := vec(r, n), vec(r, n)
		for _, xi := range []float64{r.Float64(), -r.Float64(), 0, r.Float64() * 100} {
			got := vec(r, n)
			want := clone(got)
			acc := GradDot(got, row, g, xi)
			w := gradDotRef(want, row, g, xi)
			eq(t, "GradDot.grad", got, want)
			eqScalar(t, "GradDot.acc", acc, w)
		}
	}
}

func TestAxpyDotMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 15, 64} {
		row, dy := vec(r, n), vec(r, n)
		xi := r.Float64()*2 - 1
		got := vec(r, n)
		want := clone(got)
		acc := AxpyDot(got, row, dy, xi)
		// Scalar reference: Linear's backward, no zero skip.
		wacc := 0.0
		for j, g := range dy {
			want[j] += xi * g
			wacc += row[j] * g
		}
		eq(t, "AxpyDot.grad", got, want)
		eqScalar(t, "AxpyDot.acc", acc, wacc)
	}
}

func TestAddReduceScaleMulMatchScalar(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	n := 77
	x := vec(r, n)

	got, want := vec(r, n), []float64(nil)
	want = clone(got)
	Add(got, x)
	for j := range want {
		want[j] += x[j]
	}
	eq(t, "Add", got, want)

	got = vec(r, n)
	want = clone(got)
	AddSkip(got, x)
	for j, g := range x {
		if g != 0 {
			want[j] += g
		}
	}
	eq(t, "AddSkip", got, want)

	gotSrc, wantSrc := clone(x), clone(x)
	got = vec(r, n)
	want = clone(got)
	ReduceSkip(got, gotSrc)
	for j, g := range wantSrc {
		if g != 0 {
			want[j] += g
			wantSrc[j] = 0
		}
	}
	eq(t, "ReduceSkip.dst", got, want)
	eq(t, "ReduceSkip.src", gotSrc, wantSrc)

	got = vec(r, n)
	want = clone(got)
	inv := 1 / 3.0
	ScaleSkip(got, inv)
	for j, g := range want {
		if g != 0 {
			want[j] = g * inv
		}
	}
	eq(t, "ScaleSkip", got, want)

	a, b := vec(r, n), vec(r, n)
	got = vec(r, n)
	want = clone(got)
	Mul(got, a, b)
	for j := range want {
		want[j] = a[j] * b[j]
	}
	eq(t, "Mul", got, want)
}

func TestSumSquaresAccPreservesChain(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	xs, ys := vec(r, 101), vec(r, 55)
	got := SumSquaresAcc(SumSquaresAcc(0, xs), ys)
	want := 0.0
	for _, x := range xs {
		want += x * x
	}
	for _, y := range ys {
		want += y * y
	}
	eqScalar(t, "SumSquaresAcc", got, want)
}

// TestAdamStepMatchesTwoPassScalar pins the fused kernel against the
// two-pass form it replaced: scale applied to the gradient first (one
// rounding), then the standard moment/weight updates.
func TestAdamStepMatchesTwoPassScalar(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	n := 90
	// Runtime variables, not consts: the scalar code computes 1-Beta1
	// from a struct field at runtime, and a constant-folded (1-0.9)
	// rounds differently than the runtime subtraction.
	var beta1, beta2, lr, eps float64 = 0.9, 0.999, 0.001, 1e-8
	for _, scale := range []float64{1, 0.3217} {
		w, g, m, v := vec(r, n), vec(r, n), vec(r, n), vec(r, n)
		w2, g2, m2, v2 := clone(w), clone(g), clone(m), clone(v)
		bc1 := 1 - math.Pow(beta1, 3)
		bc2 := 1 - math.Pow(beta2, 3)
		AdamStep(w, g, m, v, scale, beta1, beta2, lr, eps, bc1, bc2)
		if scale != 1 {
			for i := range g2 {
				g2[i] *= scale
			}
		}
		for i, gg := range g2 {
			m2[i] = beta1*m2[i] + (1-beta1)*gg
			v2[i] = beta2*v2[i] + (1-beta2)*gg*gg
			mHat := m2[i] / bc1
			vHat := v2[i] / bc2
			w2[i] -= lr * mHat / (math.Sqrt(vHat) + eps)
			g2[i] = 0
		}
		eq(t, "AdamStep.w", w, w2)
		eq(t, "AdamStep.m", m, m2)
		eq(t, "AdamStep.v", v, v2)
		eq(t, "AdamStep.grad", g, g2)
	}
}

func TestLSTMGateKernelsMatchScalar(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	H := 32
	pre, cPrev := vec(r, 4*H), vec(r, H)
	ig, fg, gg, og, c, h := make([]float64, H), make([]float64, H), make([]float64, H), make([]float64, H), make([]float64, H), make([]float64, H)
	tc := make([]float64, H)
	LSTMGates(ig, fg, gg, og, c, h, tc, pre, cPrev)
	sig := func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
	for j := 0; j < H; j++ {
		wi := sig(pre[j])
		wf := sig(pre[H+j])
		wg := math.Tanh(pre[2*H+j])
		wo := sig(pre[3*H+j])
		wc := wf*cPrev[j] + wi*wg
		wtc := math.Tanh(wc)
		wh := wo * wtc
		eqScalar(t, "gates.i", ig[j], wi)
		eqScalar(t, "gates.f", fg[j], wf)
		eqScalar(t, "gates.g", gg[j], wg)
		eqScalar(t, "gates.o", og[j], wo)
		eqScalar(t, "gates.c", c[j], wc)
		eqScalar(t, "gates.tc", tc[j], wtc)
		eqScalar(t, "gates.h", h[j], wh)
	}

	dh, dcNext := vec(r, H), vec(r, H)
	dPre, dc := make([]float64, 4*H), make([]float64, H)
	LSTMGateBackward(dPre, dc, dh, dcNext, ig, fg, gg, og, tc, cPrev)
	for j := 0; j < H; j++ {
		// The scalar backward recomputed tanh(c[j]); the kernel reuses
		// the forward's cached value, which is the same bits.
		wtc := math.Tanh(c[j])
		do := dh[j] * wtc
		dcj := dcNext[j] + dh[j]*og[j]*(1-wtc*wtc)
		di := dcj * gg[j]
		df := dcj * cPrev[j]
		dg := dcj * ig[j]
		eqScalar(t, "back.dc", dc[j], dcj)
		eqScalar(t, "back.d0", dPre[j], di*ig[j]*(1-ig[j]))
		eqScalar(t, "back.d1", dPre[H+j], df*fg[j]*(1-fg[j]))
		eqScalar(t, "back.d2", dPre[2*H+j], dg*(1-gg[j]*gg[j]))
		eqScalar(t, "back.d3", dPre[3*H+j], do*og[j]*(1-og[j]))
	}
}

// TestKernelsZeroAlloc pins every kernel at zero allocations per call.
func TestKernelsZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	n := 128
	a, b, x, y := vec(r, n), vec(r, n), vec(r, n), vec(r, n)
	m, v := vec(r, n), vec(r, n)
	H := 32
	g4 := vec(r, 4*H)
	s1, s2, s3, s4, s5, s6, s7 := vec(r, H), vec(r, H), vec(r, H), vec(r, H), vec(r, H), vec(r, H), vec(r, H)
	allocs := testing.AllocsPerRun(16, func() {
		Axpy(a, x, 0.5)
		Add(a, x)
		AddSkip(a, x)
		ReduceSkip(a, y)
		ScaleSkip(a, 0.5)
		Mul(a, x, b)
		_ = AxpyDot(a, b, x, 0.5)
		_ = GradDot(a, b, x, 0.5)
		_ = SumSquaresAcc(0, x)
		AdamStep(a, b, m, v, 1, 0.9, 0.999, 0.001, 1e-8, 0.1, 0.001)
		LSTMGates(s1, s2, s3, s4, s5, s6, s7, g4, x[:H])
		LSTMGateBackward(g4, s5, s6, x[:H], s1, s2, s3, s4, s7, b[:H])
	})
	if allocs != 0 {
		t.Fatalf("kernels allocate %v times per run, want 0", allocs)
	}
}
