//go:build amd64

package f64

// Assembly kernel declarations (kernels_amd64.s). Every kernel mirrors
// its generic Go counterpart operation for operation: multiplies and
// adds stay separate instructions (never contracted into FMA), zero
// skips become masked blends that leave the skipped element's bits
// untouched, and scalar tails use the VEX scalar forms of the same
// operations — so results are bit-identical to the Go loops on every
// input, including -0, NaN and denormals.

//go:noescape
func axpyAVX(dst, x *float64, a float64, n int)

//go:noescape
func addAVX(dst, x *float64, n int)

//go:noescape
func addSkipAVX(dst, x *float64, n int)

//go:noescape
func reduceSkipAVX(dst, src *float64, n int)

//go:noescape
func scaleAVX(dst *float64, a float64, n int)

//go:noescape
func scaleSkipAVX(dst *float64, a float64, n int)

//go:noescape
func mulAVX(dst, a, b *float64, n int)

//go:noescape
func adamStepAVX(w, grad, m, v *float64, n int, beta1, c1, beta2, c2, lr, eps, bc1, bc2 float64)

// axpyRowsAVX applies one lane's forward weight rows for a whole
// timestep: for each row i with xs[i] != 0, dst[j] += xs[i]*w[i*width+j].
// The per-row zero skip matches the forward pass's load-bearing skip.
//
//go:noescape
func axpyRowsAVX(w, dst, xs *float64, rows, width int)

// dotRows4AVX runs four lanes' serial dot-product chains over a whole
// timestep's weight rows. g4 is the lane-interleaved gradient vector
// (g4[4*j+k] is lane k's dPre[j]); for each row i it computes lane k's
// acc_k = Σ_j w[i*width+j]*g_k[j] over j with g_k[j] != 0, in ascending
// j order (one serial chain per (row, lane), exactly the scalar loop's
// association), and stores acc_k to ok[i]. Rows are processed four at a
// time so the four independent chains per lane hide the add latency.
//
//go:noescape
func dotRows4AVX(w, g4, o0, o1, o2, o3 *float64, rows, width int)

// 512-bit widenings (gated by useAVX512): same per-element operations
// and order as the AVX2 bodies, eight doubles per vector.

//go:noescape
func axpyRows512(w, dst, xs *float64, rows, width int)

//go:noescape
func adamStep512(w, grad, m, v *float64, n int, beta1, c1, beta2, c2, lr, eps, bc1, bc2 float64)

//go:noescape
func dotRows512(w, g4, o0, o1, o2, o3 *float64, rows, width int)

// Deferred multi-timestep gradient accumulation (see GradRowsT).

//go:noescape
func gradRowsT512(grad, gs, xs *float64, rows, width, steps int)

//go:noescape
func gradRowsTAVX(grad, gs, xs *float64, rows, width, steps int)

// lstmGates4 (gates_amd64.s) runs the LSTM gate nonlinearities four
// lanes at a time with packed mirrors of math.Exp's avxfma algorithm
// and math.Tanh's cephes structure — bit-identical per element. It
// returns how many leading elements it completed (a multiple of four);
// it stops early if a sigmoid input leaves exp's safe domain, and the
// caller finishes scalar.
//
//go:noescape
func lstmGates4(ig, fg, gg, og, c, tc, pre, cPrev *float64, hn int) int
