package f64

import (
	"math"
	"math/rand"
	"testing"
)

// Scalar references for the bulk timestep kernels: per-row replays of
// the loops the kernels replace, zero skips included. The exactness
// contract is bit-identity against these on every input class vec()
// produces (±0, denormal-ish magnitudes, mixed signs).

func axpyRowsRef(w, dst, xs []float64) {
	width := len(dst)
	for i, a := range xs {
		if a == 0 {
			continue
		}
		for j := 0; j < width; j++ {
			dst[j] += a * w[i*width+j]
		}
	}
}

func gradRowsRef(grad, g, xs []float64) {
	width := len(g)
	for i, xi := range xs {
		for j, gj := range g {
			if gj != 0 {
				grad[i*width+j] += xi * gj
			}
		}
	}
}

// gradRowsTRef replays the deferred update as the per-timestep passes
// it stands in for: one rank-1 gradRowsRef pass per slot, in slot
// order.
func gradRowsTRef(grad, gs, xs []float64, rows, width, steps int) {
	for s := 0; s < steps; s++ {
		gradRowsRef(grad, gs[s*width:(s+1)*width], xs[s*rows:(s+1)*rows])
	}
}

func dotRows4Ref(w, g4, o0, o1, o2, o3 []float64, width int) {
	for i := range o0 {
		row := w[i*width : (i+1)*width]
		var a0, a1, a2, a3 float64
		for j, wj := range row {
			if gj := g4[4*j]; gj != 0 {
				a0 += wj * gj
			}
			if gj := g4[4*j+1]; gj != 0 {
				a1 += wj * gj
			}
			if gj := g4[4*j+2]; gj != 0 {
				a2 += wj * gj
			}
			if gj := g4[4*j+3]; gj != 0 {
				a3 += wj * gj
			}
		}
		o0[i], o1[i], o2[i], o3[i] = a0, a1, a2, a3
	}
}

// rowSizes covers the kernels' dispatch seams: widths hit the zmm body,
// the ymm tail, and the scalar tail in every combination, and row
// counts hit dotRows512's eight-row groups plus every remainder.
var rowSizes = []struct{ rows, width int }{
	{1, 1}, {1, 4}, {1, 7}, {2, 3}, {3, 8}, {4, 12}, {5, 9},
	{6, 16}, {7, 21}, {8, 8}, {8, 128}, {9, 33}, {16, 20}, {32, 128},
}

func TestAxpyRowsMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for _, sz := range rowSizes {
		w := vec(r, sz.rows*sz.width)
		xs := vec(r, sz.rows)
		got := vec(r, sz.width)
		want := clone(got)
		AxpyRows(w, got, xs)
		axpyRowsRef(w, want, xs)
		eq(t, "AxpyRows", got, want)
	}
}

func TestGradRowsTMatchesPerTimestepReplay(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, sz := range rowSizes {
		for _, steps := range []int{1, 2, 5, 16} {
			gs := vec(r, steps*sz.width)
			xs := vec(r, steps*sz.rows)
			got := vec(r, sz.rows*sz.width)
			want := clone(got)
			GradRowsT(got, gs, xs, sz.rows, sz.width, steps)
			gradRowsTRef(want, gs, xs, sz.rows, sz.width, steps)
			eq(t, "GradRowsT", got, want)
		}
	}
}

func TestInterleave4RoundTrips(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 4, 7, 32} {
		g0, g1, g2, g3 := vec(r, n), vec(r, n), vec(r, n), vec(r, n)
		dst := make([]float64, 4*n)
		Interleave4(dst, g0, g1, g2, g3)
		for j := 0; j < n; j++ {
			eqScalar(t, "Interleave4.0", dst[4*j], g0[j])
			eqScalar(t, "Interleave4.1", dst[4*j+1], g1[j])
			eqScalar(t, "Interleave4.2", dst[4*j+2], g2[j])
			eqScalar(t, "Interleave4.3", dst[4*j+3], g3[j])
		}
	}
}

func TestDotRows4MatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for _, sz := range rowSizes {
		w := vec(r, sz.rows*sz.width)
		g4 := vec(r, 4*sz.width)
		got := [4][]float64{}
		want := [4][]float64{}
		for k := range got {
			got[k] = make([]float64, sz.rows)
			want[k] = make([]float64, sz.rows)
		}
		DotRows4(w, g4, got[0], got[1], got[2], got[3], sz.width)
		dotRows4Ref(w, g4, want[0], want[1], want[2], want[3], sz.width)
		for k := range got {
			eq(t, "DotRows4", got[k], want[k])
		}
	}
}

// TestRowKernelVariantsMatchGeneric pins every assembly variant —
// including the ones the dispatcher would skip on this host — against
// the generic references, so the AVX2 bodies stay verified on AVX-512
// machines and vice versa.
func TestRowKernelVariantsMatchGeneric(t *testing.T) {
	if !useAsm {
		t.Skip("no assembly kernels on this platform")
	}
	r := rand.New(rand.NewSource(15))
	for _, sz := range rowSizes {
		rows, width := sz.rows, sz.width

		w := vec(r, rows*width)
		xs := vec(r, rows)
		dst := vec(r, width)
		want := clone(dst)
		axpyRowsRef(w, want, xs)
		got := clone(dst)
		axpyRowsAVX(&w[0], &got[0], &xs[0], rows, width)
		eq(t, "axpyRowsAVX", got, want)
		if useAVX512 {
			got = clone(dst)
			axpyRows512(&w[0], &got[0], &xs[0], rows, width)
			eq(t, "axpyRows512", got, want)
		}

		grad := vec(r, rows*width)
		steps := 3
		gs := vec(r, steps*width)
		xss := vec(r, steps*rows)
		wantT := clone(grad)
		gradRowsTRef(wantT, gs, xss, rows, width, steps)
		gotT := clone(grad)
		gradRowsTAVX(&gotT[0], &gs[0], &xss[0], rows, width, steps)
		eq(t, "gradRowsTAVX", gotT, wantT)
		if useAVX512 {
			gotT = clone(grad)
			gradRowsT512(&gotT[0], &gs[0], &xss[0], rows, width, steps)
			eq(t, "gradRowsT512", gotT, wantT)
		}

		g4 := vec(r, 4*width)
		var wantO, gotO [4][]float64
		for k := 0; k < 4; k++ {
			wantO[k] = make([]float64, rows)
			gotO[k] = make([]float64, rows)
		}
		dotRows4Ref(w, g4, wantO[0], wantO[1], wantO[2], wantO[3], width)
		dotRows4AVX(&w[0], &g4[0], &gotO[0][0], &gotO[1][0], &gotO[2][0], &gotO[3][0], rows, width)
		for k := 0; k < 4; k++ {
			eq(t, "dotRows4AVX", gotO[k], wantO[k])
		}
		if useAVX512 {
			for k := 0; k < 4; k++ {
				gotO[k] = make([]float64, rows)
			}
			dotRows512(&w[0], &g4[0], &gotO[0][0], &gotO[1][0], &gotO[2][0], &gotO[3][0], rows, width)
			for k := 0; k < 4; k++ {
				eq(t, "dotRows512", gotO[k], wantO[k])
			}
		}
	}
}

// TestAdamStepVariantsMatch pins the AVX2 and AVX-512 Adam bodies
// against each other and the generic loop on the same inputs.
func TestAdamStepVariantsMatch(t *testing.T) {
	if !useAsm {
		t.Skip("no assembly kernels on this platform")
	}
	r := rand.New(rand.NewSource(16))
	n := 101
	w, g, m, v := vec(r, n), vec(r, n), vec(r, n), vec(r, n)
	var beta1, beta2, lr, eps float64 = 0.9, 0.999, 0.001, 1e-8
	c1, c2 := 1-beta1, 1-beta2
	bc1, bc2 := 0.271, 0.002997

	run := func(f func(w, g, m, v []float64)) (a, b, c, d []float64) {
		a, b, c, d = clone(w), clone(g), clone(m), clone(v)
		f(a, b, c, d)
		return
	}
	w0, g0, m0, v0 := run(func(w, g, m, v []float64) {
		for i := range w {
			gg := g[i]
			mi := beta1*m[i] + c1*gg
			vi := beta2*v[i] + c2*gg*gg
			m[i] = mi
			v[i] = vi
			w[i] -= lr * (mi / bc1) / (math.Sqrt(vi/bc2) + eps)
			g[i] = 0
		}
	})
	w1, g1, m1, v1 := run(func(w, g, m, v []float64) {
		adamStepAVX(&w[0], &g[0], &m[0], &v[0], n, beta1, c1, beta2, c2, lr, eps, bc1, bc2)
	})
	eq(t, "adamStepAVX.w", w1, w0)
	eq(t, "adamStepAVX.g", g1, g0)
	eq(t, "adamStepAVX.m", m1, m0)
	eq(t, "adamStepAVX.v", v1, v0)
	if useAVX512 {
		w2, g2, m2, v2 := run(func(w, g, m, v []float64) {
			adamStep512(&w[0], &g[0], &m[0], &v[0], n, beta1, c1, beta2, c2, lr, eps, bc1, bc2)
		})
		eq(t, "adamStep512.w", w2, w0)
		eq(t, "adamStep512.g", g2, g0)
		eq(t, "adamStep512.m", m2, m0)
		eq(t, "adamStep512.v", v2, v0)
	}
}

func TestRowKernelsZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	rows, width := 32, 128
	w := vec(r, rows*width)
	dst := vec(r, width)
	xs := vec(r, rows)
	g := vec(r, width)
	grad := vec(r, rows*width)
	g4 := vec(r, 4*width)
	o0, o1, o2, o3 := vec(r, rows), vec(r, rows), vec(r, rows), vec(r, rows)
	steps := 16
	gs := vec(r, steps*width)
	xss := vec(r, steps*rows)
	allocs := testing.AllocsPerRun(16, func() {
		AxpyRows(w, dst, xs)
		GradRowsT(grad, gs, xss, rows, width, steps)
		Interleave4(g4, g[:width], g[:width], g[:width], g[:width])
		DotRows4(w, g4, o0, o1, o2, o3, width)
	})
	if allocs != 0 {
		t.Fatalf("row kernels allocate %v times per run, want 0", allocs)
	}
}
