// AVX2 bodies for the f64 kernels. Exactness rules (DESIGN.md §14):
//
//   - Multiplies and adds stay separate VMULPD/VADDPD instructions.
//     The generic Go loops round the product and the sum separately,
//     so contracting them into an FMA would change bits.
//   - Zero skips become VCMPPD(NEQ_UQ) masks feeding VBLENDVPD: the
//     skipped element's accumulator bits pass through untouched (never
//     "add a zero", which could flip a -0 accumulator to +0). NEQ_UQ
//     is unordered-true, matching Go's `x != 0` on NaN.
//   - Scalar tails use the VEX scalar forms (VMULSD/VADDSD/...) of the
//     same operations, which round identically to the Go loop.
//   - Serial accumulation chains (the dot kernels) keep one chain per
//     (row, lane) in ascending element order; vectors run across lanes
//     and rows, never across a chain.
//
// Register discipline: R14 (goroutine pointer) and X15/Y15 (ABI zero
// register) are never touched; every function ends with VZEROUPPER.

#include "textflag.h"

// func axpyAVX(dst, x *float64, a float64, n int)
// dst[j] += a*x[j], unconditional.
TEXT ·axpyAVX(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	VBROADCASTSD a+16(FP), Y0
	MOVQ         n+24(FP), CX
	XORQ         AX, AX
	MOVQ         CX, DX
	SHRQ         $3, DX
	JZ           axpy_tail4

axpy_body8:
	VMOVUPD (SI)(AX*1), Y1
	VMOVUPD 32(SI)(AX*1), Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VADDPD  (DI)(AX*1), Y1, Y1
	VADDPD  32(DI)(AX*1), Y2, Y2
	VMOVUPD Y1, (DI)(AX*1)
	VMOVUPD Y2, 32(DI)(AX*1)
	ADDQ    $64, AX
	DECQ    DX
	JNZ     axpy_body8

axpy_tail4:
	TESTQ   $4, CX
	JZ      axpy_tail1
	VMOVUPD (SI)(AX*1), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI)(AX*1), Y1, Y1
	VMOVUPD Y1, (DI)(AX*1)
	ADDQ    $32, AX

axpy_tail1:
	MOVQ  CX, DX
	ANDQ  $3, DX
	JZ    axpy_done

axpy_scalar:
	VMOVSD (SI)(AX*1), X1
	VMULSD X0, X1, X1
	VADDSD (DI)(AX*1), X1, X1
	VMOVSD X1, (DI)(AX*1)
	ADDQ   $8, AX
	DECQ   DX
	JNZ    axpy_scalar

axpy_done:
	VZEROUPPER
	RET

// func addAVX(dst, x *float64, n int)
// dst[j] += x[j], unconditional.
TEXT ·addAVX(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	MOVQ CX, DX
	SHRQ $2, DX
	JZ   add_tail1

add_body4:
	VMOVUPD (SI)(AX*1), Y1
	VADDPD  (DI)(AX*1), Y1, Y1
	VMOVUPD Y1, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    DX
	JNZ     add_body4

add_tail1:
	MOVQ CX, DX
	ANDQ $3, DX
	JZ   add_done

add_scalar:
	VMOVSD (SI)(AX*1), X1
	VADDSD (DI)(AX*1), X1, X1
	VMOVSD X1, (DI)(AX*1)
	ADDQ   $8, AX
	DECQ   DX
	JNZ    add_scalar

add_done:
	VZEROUPPER
	RET

// func addSkipAVX(dst, x *float64, n int)
// dst[j] += x[j] where x[j] != 0; skipped elements keep their bits.
TEXT ·addSkipAVX(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   x+8(FP), SI
	MOVQ   n+16(FP), CX
	VXORPD Y7, Y7, Y7
	XORQ   AX, AX
	MOVQ   CX, DX
	SHRQ   $2, DX
	JZ     addskip_tail1

addskip_body4:
	VMOVUPD   (SI)(AX*1), Y1
	VCMPPD    $4, Y7, Y1, Y2
	VMOVUPD   (DI)(AX*1), Y3
	VADDPD    Y3, Y1, Y4
	VBLENDVPD Y2, Y4, Y3, Y3
	VMOVUPD   Y3, (DI)(AX*1)
	ADDQ      $32, AX
	DECQ      DX
	JNZ       addskip_body4

addskip_tail1:
	MOVQ CX, DX
	ANDQ $3, DX
	JZ   addskip_done

addskip_scalar:
	VMOVSD   (SI)(AX*1), X1
	VUCOMISD X7, X1
	JP       addskip_do
	JE       addskip_next

addskip_do:
	VADDSD (DI)(AX*1), X1, X1
	VMOVSD X1, (DI)(AX*1)

addskip_next:
	ADDQ $8, AX
	DECQ DX
	JNZ  addskip_scalar

addskip_done:
	VZEROUPPER
	RET

// func reduceSkipAVX(dst, src *float64, n int)
// dst[j] += src[j] and src[j] = 0 where src[j] != 0.
TEXT ·reduceSkipAVX(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVQ   n+16(FP), CX
	VXORPD Y7, Y7, Y7
	XORQ   AX, AX
	MOVQ   CX, DX
	SHRQ   $2, DX
	JZ     redskip_tail1

redskip_body4:
	VMOVUPD   (SI)(AX*1), Y1
	VCMPPD    $4, Y7, Y1, Y2
	VMOVUPD   (DI)(AX*1), Y3
	VADDPD    Y3, Y1, Y4
	VBLENDVPD Y2, Y4, Y3, Y3
	VMOVUPD   Y3, (DI)(AX*1)
	VANDNPD   Y1, Y2, Y5
	VMOVUPD   Y5, (SI)(AX*1)
	ADDQ      $32, AX
	DECQ      DX
	JNZ       redskip_body4

redskip_tail1:
	MOVQ CX, DX
	ANDQ $3, DX
	JZ   redskip_done

redskip_scalar:
	VMOVSD   (SI)(AX*1), X1
	VUCOMISD X7, X1
	JP       redskip_do
	JE       redskip_next

redskip_do:
	VADDSD (DI)(AX*1), X1, X1
	VMOVSD X1, (DI)(AX*1)
	VMOVSD X7, (SI)(AX*1)

redskip_next:
	ADDQ $8, AX
	DECQ DX
	JNZ  redskip_scalar

redskip_done:
	VZEROUPPER
	RET

// func scaleAVX(dst *float64, a float64, n int)
// dst[j] *= a, unconditional.
TEXT ·scaleAVX(SB), NOSPLIT, $0-24
	MOVQ         dst+0(FP), DI
	VBROADCASTSD a+8(FP), Y0
	MOVQ         n+16(FP), CX
	XORQ         AX, AX
	MOVQ         CX, DX
	SHRQ         $2, DX
	JZ           scale_tail1

scale_body4:
	VMOVUPD (DI)(AX*1), Y1
	VMULPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    DX
	JNZ     scale_body4

scale_tail1:
	MOVQ CX, DX
	ANDQ $3, DX
	JZ   scale_done

scale_scalar:
	VMOVSD (DI)(AX*1), X1
	VMULSD X0, X1, X1
	VMOVSD X1, (DI)(AX*1)
	ADDQ   $8, AX
	DECQ   DX
	JNZ    scale_scalar

scale_done:
	VZEROUPPER
	RET

// func scaleSkipAVX(dst *float64, a float64, n int)
// dst[j] *= a where dst[j] != 0.
TEXT ·scaleSkipAVX(SB), NOSPLIT, $0-24
	MOVQ         dst+0(FP), DI
	VBROADCASTSD a+8(FP), Y0
	MOVQ         n+16(FP), CX
	VXORPD       Y7, Y7, Y7
	XORQ         AX, AX
	MOVQ         CX, DX
	SHRQ         $2, DX
	JZ           sclskip_tail1

sclskip_body4:
	VMOVUPD   (DI)(AX*1), Y1
	VCMPPD    $4, Y7, Y1, Y2
	VMULPD    Y0, Y1, Y3
	VBLENDVPD Y2, Y3, Y1, Y1
	VMOVUPD   Y1, (DI)(AX*1)
	ADDQ      $32, AX
	DECQ      DX
	JNZ       sclskip_body4

sclskip_tail1:
	MOVQ CX, DX
	ANDQ $3, DX
	JZ   sclskip_done

sclskip_scalar:
	VMOVSD   (DI)(AX*1), X1
	VUCOMISD X7, X1
	JP       sclskip_do
	JE       sclskip_next

sclskip_do:
	VMULSD X0, X1, X1
	VMOVSD X1, (DI)(AX*1)

sclskip_next:
	ADDQ $8, AX
	DECQ DX
	JNZ  sclskip_scalar

sclskip_done:
	VZEROUPPER
	RET

// func mulAVX(dst, a, b *float64, n int)
// dst[j] = a[j]*b[j].
TEXT ·mulAVX(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R8
	MOVQ n+24(FP), CX
	XORQ AX, AX
	MOVQ CX, DX
	SHRQ $2, DX
	JZ   mul_tail1

mul_body4:
	VMOVUPD (SI)(AX*1), Y1
	VMULPD  (R8)(AX*1), Y1, Y1
	VMOVUPD Y1, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    DX
	JNZ     mul_body4

mul_tail1:
	MOVQ CX, DX
	ANDQ $3, DX
	JZ   mul_done

mul_scalar:
	VMOVSD (SI)(AX*1), X1
	VMULSD (R8)(AX*1), X1, X1
	VMOVSD X1, (DI)(AX*1)
	ADDQ   $8, AX
	DECQ   DX
	JNZ    mul_scalar

mul_done:
	VZEROUPPER
	RET

// func adamStepAVX(w, grad, m, v *float64, n int, beta1, c1, beta2, c2, lr, eps, bc1, bc2 float64)
// Fused Adam update; the caller pre-applies the clip scale (the scaled
// gradient is bitwise what the two-pass scalar code stored and re-read)
// and precomputes c1 = 1-beta1, c2 = 1-beta2 with the same expressions
// as the generic kernel.
TEXT ·adamStepAVX(SB), NOSPLIT, $0-104
	MOVQ         w+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         m+16(FP), R8
	MOVQ         v+24(FP), R9
	MOVQ         n+32(FP), CX
	VBROADCASTSD beta1+40(FP), Y7
	VBROADCASTSD c1+48(FP), Y8
	VBROADCASTSD beta2+56(FP), Y9
	VBROADCASTSD c2+64(FP), Y10
	VBROADCASTSD lr+72(FP), Y11
	VBROADCASTSD eps+80(FP), Y12
	VBROADCASTSD bc1+88(FP), Y13
	VBROADCASTSD bc2+96(FP), Y14
	VXORPD       Y6, Y6, Y6
	XORQ         AX, AX
	MOVQ         CX, DX
	SHRQ         $2, DX
	JZ           adam_tail1

adam_body4:
	VMOVUPD (SI)(AX*1), Y0     // g
	VMOVUPD (R8)(AX*1), Y1     // m
	VMULPD  Y7, Y1, Y1         // beta1*m
	VMULPD  Y8, Y0, Y2         // c1*g
	VADDPD  Y2, Y1, Y1         // mi
	VMOVUPD (R9)(AX*1), Y2     // v
	VMULPD  Y9, Y2, Y2         // beta2*v
	VMULPD  Y10, Y0, Y3        // c2*g
	VMULPD  Y0, Y3, Y3         // (c2*g)*g
	VADDPD  Y3, Y2, Y2         // vi
	VMOVUPD Y1, (R8)(AX*1)
	VMOVUPD Y2, (R9)(AX*1)
	VDIVPD  Y13, Y1, Y1        // mHat = mi/bc1
	VDIVPD  Y14, Y2, Y2        // vHat = vi/bc2
	VSQRTPD Y2, Y2
	VADDPD  Y12, Y2, Y2        // sqrt(vHat)+eps
	VMULPD  Y11, Y1, Y1        // lr*mHat
	VDIVPD  Y2, Y1, Y1         // quotient
	VMOVUPD (DI)(AX*1), Y5
	VSUBPD  Y1, Y5, Y5         // w - quotient
	VMOVUPD Y5, (DI)(AX*1)
	VMOVUPD Y6, (SI)(AX*1)     // grad = 0
	ADDQ    $32, AX
	DECQ    DX
	JNZ     adam_body4

adam_tail1:
	MOVQ CX, DX
	ANDQ $3, DX
	JZ   adam_done

adam_scalar:
	VMOVSD  (SI)(AX*1), X0
	VMOVSD  (R8)(AX*1), X1
	VMULSD  X7, X1, X1
	VMULSD  X8, X0, X2
	VADDSD  X2, X1, X1
	VMOVSD  (R9)(AX*1), X2
	VMULSD  X9, X2, X2
	VMULSD  X10, X0, X3
	VMULSD  X0, X3, X3
	VADDSD  X3, X2, X2
	VMOVSD  X1, (R8)(AX*1)
	VMOVSD  X2, (R9)(AX*1)
	VDIVSD  X13, X1, X1
	VDIVSD  X14, X2, X2
	VSQRTSD X2, X2, X2
	VADDSD  X12, X2, X2
	VMULSD  X11, X1, X1
	VDIVSD  X2, X1, X1
	VMOVSD  (DI)(AX*1), X5
	VSUBSD  X1, X5, X5
	VMOVSD  X5, (DI)(AX*1)
	VMOVSD  X6, (SI)(AX*1)
	ADDQ    $8, AX
	DECQ    DX
	JNZ     adam_scalar

adam_done:
	VZEROUPPER
	RET

// func axpyRowsAVX(w, dst, xs *float64, rows, width int)
// For each row i with xs[i] != 0: dst[j] += xs[i]*w[i*width+j].
TEXT ·axpyRowsAVX(SB), NOSPLIT, $0-40
	MOVQ   w+0(FP), DX
	MOVQ   dst+8(FP), DI
	MOVQ   xs+16(FP), R10
	MOVQ   rows+24(FP), CX
	MOVQ   width+32(FP), R15
	VXORPD X9, X9, X9
	TESTQ  CX, CX
	JZ     arows_done

arows_row:
	VMOVSD   (R10), X0
	ADDQ     $8, R10
	VUCOMISD X9, X0
	JP       arows_do           // NaN scale still applies (x != 0)
	JE       arows_next

arows_do:
	VBROADCASTSD X0, Y0
	XORQ         AX, AX
	MOVQ         R15, BX
	SHRQ         $2, BX
	JZ           arows_tail

arows_body4:
	VMOVUPD (DX)(AX*1), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI)(AX*1), Y1, Y1
	VMOVUPD Y1, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    BX
	JNZ     arows_body4

arows_tail:
	MOVQ R15, BX
	ANDQ $3, BX
	JZ   arows_next

arows_scalar:
	VMOVSD (DX)(AX*1), X1
	VMULSD X0, X1, X1
	VADDSD (DI)(AX*1), X1, X1
	VMOVSD X1, (DI)(AX*1)
	ADDQ   $8, AX
	DECQ   BX
	JNZ    arows_scalar

arows_next:
	LEAQ (DX)(R15*8), DX
	DECQ CX
	JNZ  arows_row

arows_done:
	VZEROUPPER
	RET

// func dotRows4AVX(w, g4, o0, o1, o2, o3 *float64, rows, width int)
// Four lanes' serial dot chains per weight row: lane k of the Y-register
// accumulator carries acc_k for one row, advanced in ascending j, with
// g_k[j] == 0 steps blended out. Four rows run interleaved to hide the
// VADDPD chain latency.
TEXT ·dotRows4AVX(SB), NOSPLIT, $0-64
	MOVQ   w+0(FP), DX
	MOVQ   g4+8(FP), SI
	MOVQ   o0+16(FP), DI
	MOVQ   o1+24(FP), R8
	MOVQ   o2+32(FP), R9
	MOVQ   o3+40(FP), R10
	MOVQ   rows+48(FP), CX
	MOVQ   width+56(FP), R12
	SHLQ   $3, R12             // row stride in bytes
	VXORPD Y7, Y7, Y7
	XORQ   R11, R11            // output byte offset

drows_group4:
	CMPQ CX, $4
	JB   drows_rem
	LEAQ (DX)(R12*1), R13
	LEAQ (R13)(R12*1), R15
	LEAQ (R15)(R12*1), BX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   AX, AX

drows_jloop:
	VMOVUPD      (SI)(AX*4), Y5    // the four lanes' g at j
	VCMPPD       $4, Y7, Y5, Y4    // lane mask: g != 0
	VBROADCASTSD (DX)(AX*1), Y6
	VMULPD       Y5, Y6, Y6
	VADDPD       Y0, Y6, Y8
	VBLENDVPD    Y4, Y8, Y0, Y0
	VBROADCASTSD (R13)(AX*1), Y6
	VMULPD       Y5, Y6, Y6
	VADDPD       Y1, Y6, Y8
	VBLENDVPD    Y4, Y8, Y1, Y1
	VBROADCASTSD (R15)(AX*1), Y6
	VMULPD       Y5, Y6, Y6
	VADDPD       Y2, Y6, Y8
	VBLENDVPD    Y4, Y8, Y2, Y2
	VBROADCASTSD (BX)(AX*1), Y6
	VMULPD       Y5, Y6, Y6
	VADDPD       Y3, Y6, Y8
	VBLENDVPD    Y4, Y8, Y3, Y3
	ADDQ         $8, AX
	CMPQ         AX, R12
	JB           drows_jloop

	// Scatter each row's four lane accumulators to o0..o3.
	VMOVSD       X0, (DI)(R11*1)
	VPERMILPD    $1, X0, X8
	VMOVSD       X8, (R8)(R11*1)
	VEXTRACTF128 $1, Y0, X8
	VMOVSD       X8, (R9)(R11*1)
	VPERMILPD    $1, X8, X8
	VMOVSD       X8, (R10)(R11*1)

	VMOVSD       X1, 8(DI)(R11*1)
	VPERMILPD    $1, X1, X8
	VMOVSD       X8, 8(R8)(R11*1)
	VEXTRACTF128 $1, Y1, X8
	VMOVSD       X8, 8(R9)(R11*1)
	VPERMILPD    $1, X8, X8
	VMOVSD       X8, 8(R10)(R11*1)

	VMOVSD       X2, 16(DI)(R11*1)
	VPERMILPD    $1, X2, X8
	VMOVSD       X8, 16(R8)(R11*1)
	VEXTRACTF128 $1, Y2, X8
	VMOVSD       X8, 16(R9)(R11*1)
	VPERMILPD    $1, X8, X8
	VMOVSD       X8, 16(R10)(R11*1)

	VMOVSD       X3, 24(DI)(R11*1)
	VPERMILPD    $1, X3, X8
	VMOVSD       X8, 24(R8)(R11*1)
	VEXTRACTF128 $1, Y3, X8
	VMOVSD       X8, 24(R9)(R11*1)
	VPERMILPD    $1, X8, X8
	VMOVSD       X8, 24(R10)(R11*1)

	LEAQ (BX)(R12*1), DX
	ADDQ $32, R11
	SUBQ $4, CX
	JMP  drows_group4

drows_rem:
	TESTQ  CX, CX
	JZ     drows_done
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX

drows_rjloop:
	VMOVUPD      (SI)(AX*4), Y5
	VCMPPD       $4, Y7, Y5, Y4
	VBROADCASTSD (DX)(AX*1), Y6
	VMULPD       Y5, Y6, Y6
	VADDPD       Y0, Y6, Y8
	VBLENDVPD    Y4, Y8, Y0, Y0
	ADDQ         $8, AX
	CMPQ         AX, R12
	JB           drows_rjloop

	VMOVSD       X0, (DI)(R11*1)
	VPERMILPD    $1, X0, X8
	VMOVSD       X8, (R8)(R11*1)
	VEXTRACTF128 $1, Y0, X8
	VMOVSD       X8, (R9)(R11*1)
	VPERMILPD    $1, X8, X8
	VMOVSD       X8, (R10)(R11*1)

	ADDQ R12, DX
	ADDQ $8, R11
	DECQ CX
	JMP  drows_rem

drows_done:
	VZEROUPPER
	RET

// AVX-512 widenings of the bulk kernels. Same exactness rules: separate
// VMULPD/VADDPD (no FMA), and the g != 0 skip becomes a VCMPPD(NEQ_UQ)
// k-mask feeding a merge-masked VADDPD — a masked-off element's
// destination bits pass through the store untouched, exactly like the
// VBLENDVPD path. Tails reuse the proven 4-wide/scalar VEX sequences.

// func axpyRows512(w, dst, xs *float64, rows, width int)
// 512-bit body of axpyRowsAVX: identical per-element operations.
TEXT ·axpyRows512(SB), NOSPLIT, $0-40
	MOVQ   w+0(FP), DX
	MOVQ   dst+8(FP), DI
	MOVQ   xs+16(FP), R10
	MOVQ   rows+24(FP), CX
	MOVQ   width+32(FP), R15
	VXORPD X9, X9, X9
	TESTQ  CX, CX
	JZ     a5rows_done

a5rows_row:
	VMOVSD   (R10), X0
	ADDQ     $8, R10
	VUCOMISD X9, X0
	JP       a5rows_do           // NaN scale still applies (x != 0)
	JE       a5rows_next

a5rows_do:
	VBROADCASTSD X0, Z0
	XORQ         AX, AX
	MOVQ         R15, BX
	SHRQ         $3, BX
	JZ           a5rows_tail4

a5rows_body8:
	VMOVUPD (DX)(AX*1), Z1
	VMULPD  Z0, Z1, Z1
	VADDPD  (DI)(AX*1), Z1, Z1
	VMOVUPD Z1, (DI)(AX*1)
	ADDQ    $64, AX
	DECQ    BX
	JNZ     a5rows_body8

a5rows_tail4:
	TESTQ   $4, R15
	JZ      a5rows_tail1
	VMOVUPD (DX)(AX*1), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI)(AX*1), Y1, Y1
	VMOVUPD Y1, (DI)(AX*1)
	ADDQ    $32, AX

a5rows_tail1:
	MOVQ R15, BX
	ANDQ $3, BX
	JZ   a5rows_next

a5rows_scalar:
	VMOVSD (DX)(AX*1), X1
	VMULSD X0, X1, X1
	VADDSD (DI)(AX*1), X1, X1
	VMOVSD X1, (DI)(AX*1)
	ADDQ   $8, AX
	DECQ   BX
	JNZ    a5rows_scalar

a5rows_next:
	LEAQ (DX)(R15*8), DX
	DECQ CX
	JNZ  a5rows_row

a5rows_done:
	VZEROUPPER
	RET

// func adamStep512(w, grad, m, v *float64, n int, beta1, c1, beta2, c2, lr, eps, bc1, bc2 float64)
// 512-bit body of adamStepAVX, same operation order per element.
TEXT ·adamStep512(SB), NOSPLIT, $0-104
	MOVQ         w+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         m+16(FP), R8
	MOVQ         v+24(FP), R9
	MOVQ         n+32(FP), CX
	VBROADCASTSD beta1+40(FP), Z7
	VBROADCASTSD c1+48(FP), Z8
	VBROADCASTSD beta2+56(FP), Z9
	VBROADCASTSD c2+64(FP), Z10
	VBROADCASTSD lr+72(FP), Z11
	VBROADCASTSD eps+80(FP), Z12
	VBROADCASTSD bc1+88(FP), Z13
	VBROADCASTSD bc2+96(FP), Z14
	VXORPD       X6, X6, X6
	XORQ         AX, AX
	MOVQ         CX, DX
	SHRQ         $3, DX
	JZ           adam5_tail4

adam5_body8:
	VMOVUPD (SI)(AX*1), Z0     // g
	VMOVUPD (R8)(AX*1), Z1     // m
	VMULPD  Z7, Z1, Z1         // beta1*m
	VMULPD  Z8, Z0, Z2         // c1*g
	VADDPD  Z2, Z1, Z1         // mi
	VMOVUPD (R9)(AX*1), Z2     // v
	VMULPD  Z9, Z2, Z2         // beta2*v
	VMULPD  Z10, Z0, Z3        // c2*g
	VMULPD  Z0, Z3, Z3         // (c2*g)*g
	VADDPD  Z3, Z2, Z2         // vi
	VMOVUPD Z1, (R8)(AX*1)
	VMOVUPD Z2, (R9)(AX*1)
	VDIVPD  Z13, Z1, Z1        // mHat = mi/bc1
	VDIVPD  Z14, Z2, Z2        // vHat = vi/bc2
	VSQRTPD Z2, Z2
	VADDPD  Z12, Z2, Z2        // sqrt(vHat)+eps
	VMULPD  Z11, Z1, Z1        // lr*mHat
	VDIVPD  Z2, Z1, Z1         // quotient
	VMOVUPD (DI)(AX*1), Z5
	VSUBPD  Z1, Z5, Z5         // w - quotient
	VMOVUPD Z5, (DI)(AX*1)
	VMOVUPD Z6, (SI)(AX*1)     // grad = 0
	ADDQ    $64, AX
	DECQ    DX
	JNZ     adam5_body8

adam5_tail4:
	TESTQ   $4, CX
	JZ      adam5_tail1
	VMOVUPD (SI)(AX*1), Y0
	VMOVUPD (R8)(AX*1), Y1
	VMULPD  Y7, Y1, Y1
	VMULPD  Y8, Y0, Y2
	VADDPD  Y2, Y1, Y1
	VMOVUPD (R9)(AX*1), Y2
	VMULPD  Y9, Y2, Y2
	VMULPD  Y10, Y0, Y3
	VMULPD  Y0, Y3, Y3
	VADDPD  Y3, Y2, Y2
	VMOVUPD Y1, (R8)(AX*1)
	VMOVUPD Y2, (R9)(AX*1)
	VDIVPD  Y13, Y1, Y1
	VDIVPD  Y14, Y2, Y2
	VSQRTPD Y2, Y2
	VADDPD  Y12, Y2, Y2
	VMULPD  Y11, Y1, Y1
	VDIVPD  Y2, Y1, Y1
	VMOVUPD (DI)(AX*1), Y5
	VSUBPD  Y1, Y5, Y5
	VMOVUPD Y5, (DI)(AX*1)
	VMOVUPD Y6, (SI)(AX*1)
	ADDQ    $32, AX

adam5_tail1:
	MOVQ CX, DX
	ANDQ $3, DX
	JZ   adam5_done

adam5_scalar:
	VMOVSD  (SI)(AX*1), X0
	VMOVSD  (R8)(AX*1), X1
	VMULSD  X7, X1, X1
	VMULSD  X8, X0, X2
	VADDSD  X2, X1, X1
	VMOVSD  (R9)(AX*1), X2
	VMULSD  X9, X2, X2
	VMULSD  X10, X0, X3
	VMULSD  X0, X3, X3
	VADDSD  X3, X2, X2
	VMOVSD  X1, (R8)(AX*1)
	VMOVSD  X2, (R9)(AX*1)
	VDIVSD  X13, X1, X1
	VDIVSD  X14, X2, X2
	VSQRTSD X2, X2, X2
	VADDSD  X12, X2, X2
	VMULSD  X11, X1, X1
	VDIVSD  X2, X1, X1
	VMOVSD  (DI)(AX*1), X5
	VSUBSD  X1, X5, X5
	VMOVSD  X5, (DI)(AX*1)
	VMOVSD  X6, (SI)(AX*1)
	ADDQ    $8, AX
	DECQ    DX
	JNZ     adam5_scalar

adam5_done:
	VZEROUPPER
	RET

// func dotRows512(w, g4, o0, o1, o2, o3 *float64, rows, width int)
// AVX-512 body of dotRows4AVX: each zmm accumulator carries TWO rows'
// four lane chains (low ymm half = row 2p, high half = row 2p+1), so
// eight rows advance per j step. Every (row, lane) chain is still one
// serial VADDPD chain in ascending j — the association is exactly the
// scalar GradDot's — and the g != 0 skip is a merge-masked add that
// leaves the accumulator untouched. Row groups of eight, then a
// single-row ymm loop for the remainder. Rows done is tracked via the
// output byte offset in R11 (rows done = R11 >> 3).
TEXT ·dotRows512(SB), NOSPLIT, $0-64
	MOVQ   w+0(FP), DX
	MOVQ   g4+8(FP), SI
	MOVQ   o0+16(FP), DI
	MOVQ   o1+24(FP), R8
	MOVQ   o2+32(FP), R9
	MOVQ   o3+40(FP), R10
	MOVQ   width+56(FP), R12
	SHLQ   $3, R12             // row stride in bytes
	VXORPD X9, X9, X9          // zero for the g != 0 compares
	XORQ   R11, R11            // output byte offset

d5rows_group8:
	MOVQ rows+48(FP), CX
	MOVQ R11, R15
	SHRQ $3, R15
	SUBQ R15, CX               // rows remaining
	CMPQ CX, $8
	JB   d5rows_rem
	MOVQ SI, AX                // save g4 base for this group
	LEAQ (DX)(R12*2), R15      // pair bases: rows {0,1} at DX,
	LEAQ (R15)(R12*2), BX      // {2,3} at R15, {4,5} at BX,
	LEAQ (BX)(R12*2), R13      // {6,7} at R13

	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3
	LEAQ   (DX)(R12*1), CX     // j-loop end: row 0 base + width bytes

d5rows_jloop:
	VBROADCASTF64X4 (SI), Z5   // four lanes' g at j, both halves
	VCMPPD          $4, Z9, Z5, K1
	VBROADCASTSD    (DX), Y6
	VBROADCASTSD    (DX)(R12*1), Y7
	VINSERTF64X4    $1, Y7, Z6, Z6
	VMULPD          Z5, Z6, Z6
	VADDPD          Z6, Z0, K1, Z0
	VBROADCASTSD    (R15), Y6
	VBROADCASTSD    (R15)(R12*1), Y7
	VINSERTF64X4    $1, Y7, Z6, Z6
	VMULPD          Z5, Z6, Z6
	VADDPD          Z6, Z1, K1, Z1
	VBROADCASTSD    (BX), Y6
	VBROADCASTSD    (BX)(R12*1), Y7
	VINSERTF64X4    $1, Y7, Z6, Z6
	VMULPD          Z5, Z6, Z6
	VADDPD          Z6, Z2, K1, Z2
	VBROADCASTSD    (R13), Y6
	VBROADCASTSD    (R13)(R12*1), Y7
	VINSERTF64X4    $1, Y7, Z6, Z6
	VMULPD          Z5, Z6, Z6
	VADDPD          Z6, Z3, K1, Z3
	ADDQ            $32, SI
	ADDQ            $8, DX
	ADDQ            $8, R15
	ADDQ            $8, BX
	ADDQ            $8, R13
	CMPQ            DX, CX
	JB              d5rows_jloop

	// Scatter: acc p low half is row 2p's four lanes, high half row 2p+1.
	VMOVSD        X0, (DI)(R11*1)
	VPERMILPD     $1, X0, X8
	VMOVSD        X8, (R8)(R11*1)
	VEXTRACTF128  $1, Y0, X8
	VMOVSD        X8, (R9)(R11*1)
	VPERMILPD     $1, X8, X8
	VMOVSD        X8, (R10)(R11*1)
	VEXTRACTF64X4 $1, Z0, Y8
	VMOVSD        X8, 8(DI)(R11*1)
	VPERMILPD     $1, X8, X7
	VMOVSD        X7, 8(R8)(R11*1)
	VEXTRACTF128  $1, Y8, X8
	VMOVSD        X8, 8(R9)(R11*1)
	VPERMILPD     $1, X8, X8
	VMOVSD        X8, 8(R10)(R11*1)

	VMOVSD        X1, 16(DI)(R11*1)
	VPERMILPD     $1, X1, X8
	VMOVSD        X8, 16(R8)(R11*1)
	VEXTRACTF128  $1, Y1, X8
	VMOVSD        X8, 16(R9)(R11*1)
	VPERMILPD     $1, X8, X8
	VMOVSD        X8, 16(R10)(R11*1)
	VEXTRACTF64X4 $1, Z1, Y8
	VMOVSD        X8, 24(DI)(R11*1)
	VPERMILPD     $1, X8, X7
	VMOVSD        X7, 24(R8)(R11*1)
	VEXTRACTF128  $1, Y8, X8
	VMOVSD        X8, 24(R9)(R11*1)
	VPERMILPD     $1, X8, X8
	VMOVSD        X8, 24(R10)(R11*1)

	VMOVSD        X2, 32(DI)(R11*1)
	VPERMILPD     $1, X2, X8
	VMOVSD        X8, 32(R8)(R11*1)
	VEXTRACTF128  $1, Y2, X8
	VMOVSD        X8, 32(R9)(R11*1)
	VPERMILPD     $1, X8, X8
	VMOVSD        X8, 32(R10)(R11*1)
	VEXTRACTF64X4 $1, Z2, Y8
	VMOVSD        X8, 40(DI)(R11*1)
	VPERMILPD     $1, X8, X7
	VMOVSD        X7, 40(R8)(R11*1)
	VEXTRACTF128  $1, Y8, X8
	VMOVSD        X8, 40(R9)(R11*1)
	VPERMILPD     $1, X8, X8
	VMOVSD        X8, 40(R10)(R11*1)

	VMOVSD        X3, 48(DI)(R11*1)
	VPERMILPD     $1, X3, X8
	VMOVSD        X8, 48(R8)(R11*1)
	VEXTRACTF128  $1, Y3, X8
	VMOVSD        X8, 48(R9)(R11*1)
	VPERMILPD     $1, X8, X8
	VMOVSD        X8, 48(R10)(R11*1)
	VEXTRACTF64X4 $1, Z3, Y8
	VMOVSD        X8, 56(DI)(R11*1)
	VPERMILPD     $1, X8, X7
	VMOVSD        X7, 56(R8)(R11*1)
	VEXTRACTF128  $1, Y8, X8
	VMOVSD        X8, 56(R9)(R11*1)
	VPERMILPD     $1, X8, X8
	VMOVSD        X8, 56(R10)(R11*1)

	LEAQ (R13)(R12*1), DX      // rows 6,7 base + one stride = next row 0
	MOVQ AX, SI                // rewind g4
	ADDQ $64, R11
	JMP  d5rows_group8

d5rows_rem:
	TESTQ  CX, CX
	JZ     d5rows_done
	MOVQ   SI, AX
	VXORPD X0, X0, X0
	LEAQ   (DX)(R12*1), BX

d5rows_rjloop:
	VMOVUPD      (SI), Y5
	VCMPPD       $4, Y9, Y5, Y4
	VBROADCASTSD (DX), Y6
	VMULPD       Y5, Y6, Y6
	VADDPD       Y0, Y6, Y8
	VBLENDVPD    Y4, Y8, Y0, Y0
	ADDQ         $32, SI
	ADDQ         $8, DX
	CMPQ         DX, BX
	JB           d5rows_rjloop

	VMOVSD       X0, (DI)(R11*1)
	VPERMILPD    $1, X0, X8
	VMOVSD       X8, (R8)(R11*1)
	VEXTRACTF128 $1, Y0, X8
	VMOVSD       X8, (R9)(R11*1)
	VPERMILPD    $1, X8, X8
	VMOVSD       X8, (R10)(R11*1)

	MOVQ AX, SI
	ADDQ $8, R11
	DECQ CX
	JMP  d5rows_rem

d5rows_done:
	VZEROUPPER
	RET

// func gradRowsT512(grad, gs, xs *float64, rows, width, steps int)
// Deferred weight-gradient accumulation: one pass over grad applying
// `steps` saved timesteps' rank-1 updates per element. For each row i
// and column j: acc = grad[i*width+j]; for s = 0..steps-1: if
// gs[s*width+j] != 0 { acc += xs[s*rows+i] * gs[s*width+j] }; store.
// The caller lays out slots s in the SAME order a per-timestep
// rank-1 update would have run, so the in-register chain reproduces
// the per-timestep read-modify-write sequence exactly — each store is
// exact, so rounding is unchanged. zmm body, ymm tail4, scalar tail.
TEXT ·gradRowsT512(SB), NOSPLIT, $0-48
	MOVQ   grad+0(FP), DI
	MOVQ   gs+8(FP), SI
	MOVQ   xs+16(FP), DX
	MOVQ   rows+24(FP), CX
	MOVQ   width+32(FP), R12
	SHLQ   $3, R12             // width in bytes
	MOVQ   rows+24(FP), R10
	SHLQ   $3, R10             // xs slot stride in bytes
	MOVQ   steps+40(FP), R13
	VXORPD X9, X9, X9
	XORQ   R11, R11            // i*8

gT_row:
	TESTQ CX, CX
	JZ    gT_done
	XORQ  AX, AX               // column byte offset
	LEAQ  -64(R12), R15

gT_blk8:
	CMPQ    AX, R15
	JG      gT_tail4
	VMOVUPD (DI)(AX*1), Z0
	LEAQ    (SI)(AX*1), R8     // g cursor: slot 0, column j
	LEAQ    (DX)(R11*1), R9    // x cursor: slot 0, row i
	MOVQ    R13, BX

gT_s8:
	VMOVUPD      (R8), Z1
	VCMPPD       $4, Z9, Z1, K1
	VBROADCASTSD (R9), Z2
	VMULPD       Z1, Z2, Z2
	VADDPD       Z2, Z0, K1, Z0
	ADDQ         R12, R8
	ADDQ         R10, R9
	DECQ         BX
	JNZ          gT_s8

	VMOVUPD Z0, (DI)(AX*1)
	ADDQ    $64, AX
	JMP     gT_blk8

gT_tail4:
	LEAQ    -32(R12), R15
	CMPQ    AX, R15
	JG      gT_tail1
	VMOVUPD (DI)(AX*1), Y0
	LEAQ    (SI)(AX*1), R8
	LEAQ    (DX)(R11*1), R9
	MOVQ    R13, BX

gT_s4:
	VMOVUPD      (R8), Y1
	VCMPPD       $4, Y9, Y1, Y3
	VBROADCASTSD (R9), Y2
	VMULPD       Y1, Y2, Y2
	VADDPD       Y0, Y2, Y4
	VBLENDVPD    Y3, Y4, Y0, Y0
	ADDQ         R12, R8
	ADDQ         R10, R9
	DECQ         BX
	JNZ          gT_s4

	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX

gT_tail1:
	CMPQ   AX, R12
	JGE    gT_rownext
	VMOVSD (DI)(AX*1), X0
	LEAQ   (SI)(AX*1), R8
	LEAQ   (DX)(R11*1), R9
	MOVQ   R13, BX

gT_s1:
	VMOVSD   (R8), X1
	VUCOMISD X9, X1
	JP       gT_s1add          // NaN: g != 0, apply
	JE       gT_s1skip
gT_s1add:
	VMOVSD (R9), X2
	VMULSD X1, X2, X2
	VADDSD X2, X0, X0
gT_s1skip:
	ADDQ R12, R8
	ADDQ R10, R9
	DECQ BX
	JNZ  gT_s1

	VMOVSD X0, (DI)(AX*1)
	ADDQ   $8, AX
	JMP    gT_tail1

gT_rownext:
	ADDQ $8, R11
	ADDQ R12, DI
	DECQ CX
	JMP  gT_row

gT_done:
	VZEROUPPER
	RET

// func gradRowsTAVX(grad, gs, xs *float64, rows, width, steps int)
// AVX2 body of gradRowsT512: same element order, four doubles per
// vector, blend instead of merge-mask.
TEXT ·gradRowsTAVX(SB), NOSPLIT, $0-48
	MOVQ   grad+0(FP), DI
	MOVQ   gs+8(FP), SI
	MOVQ   xs+16(FP), DX
	MOVQ   rows+24(FP), CX
	MOVQ   width+32(FP), R12
	SHLQ   $3, R12
	MOVQ   rows+24(FP), R10
	SHLQ   $3, R10
	MOVQ   steps+40(FP), R13
	VXORPD X9, X9, X9
	XORQ   R11, R11

gTa_row:
	TESTQ CX, CX
	JZ    gTa_done
	XORQ  AX, AX
	LEAQ  -32(R12), R15

gTa_blk4:
	CMPQ    AX, R15
	JG      gTa_tail1
	VMOVUPD (DI)(AX*1), Y0
	LEAQ    (SI)(AX*1), R8
	LEAQ    (DX)(R11*1), R9
	MOVQ    R13, BX

gTa_s4:
	VMOVUPD      (R8), Y1
	VCMPPD       $4, Y9, Y1, Y3
	VBROADCASTSD (R9), Y2
	VMULPD       Y1, Y2, Y2
	VADDPD       Y0, Y2, Y4
	VBLENDVPD    Y3, Y4, Y0, Y0
	ADDQ         R12, R8
	ADDQ         R10, R9
	DECQ         BX
	JNZ          gTa_s4

	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	JMP     gTa_blk4

gTa_tail1:
	CMPQ   AX, R12
	JGE    gTa_rownext
	VMOVSD (DI)(AX*1), X0
	LEAQ   (SI)(AX*1), R8
	LEAQ   (DX)(R11*1), R9
	MOVQ   R13, BX

gTa_s1:
	VMOVSD   (R8), X1
	VUCOMISD X9, X1
	JP       gTa_s1add
	JE       gTa_s1skip
gTa_s1add:
	VMOVSD (R9), X2
	VMULSD X1, X2, X2
	VADDSD X2, X0, X0
gTa_s1skip:
	ADDQ R12, R8
	ADDQ R10, R9
	DECQ BX
	JNZ  gTa_s1

	VMOVSD X0, (DI)(AX*1)
	ADDQ   $8, AX
	JMP    gTa_tail1

gTa_rownext:
	ADDQ $8, R11
	ADDQ R12, DI
	DECQ CX
	JMP  gTa_row

gTa_done:
	VZEROUPPER
	RET
