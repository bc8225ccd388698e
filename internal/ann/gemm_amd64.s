//go:build amd64 && !actor_noasm

// AVX2 vector kernels for the batched trainer. Every routine vectorizes
// across INDEPENDENT outputs only — four batch samples or four weight
// indices per instruction, and, where a layer's lanes are hidden units,
// one Hidden block of sixteen lanes (four vectors) per step — and
// performs, per output, exactly the operation sequence of the scalar
// reference in gemm.go: the same multiplies, adds, subtracts and divides,
// in the same order, with no FMA contraction (a fused multiply-add rounds
// once where the reference rounds twice, which would break bit-identity).
// Reductions (the i-sums of the forward passes) always stay within one
// lane. The sixteen-lane kernels interleave their four vectors instruction
// by instruction, so four independent dependency chains are in flight.
//
// The SIGMOID16 macro is sigmoid(v) = 1/(1+fastExp(−v)) from gemm.go and
// network.go transcribed operation for operation; see gemm.go for the
// algorithm. Lanes whose argument −v is below the underflow cutoff are
// computed anyway and zeroed at the end (the scalar path returns 0 early)
// — the discarded lanes cannot raise traps because SSE/AVX exceptions are
// masked in Go.

#include "textflag.h"

// The output unit's fan-in, ann.Hidden = 16 (gemm_amd64.go asserts it): in
// bytes, and in vectors of four.
#define HIDDEN_BYTES 128
#define HIDDEN_VECS 4

DATA expconsts<>+0(SB)/8, $0x4086280000000000   // 709.0 (overflow clamp)
DATA expconsts<>+8(SB)/8, $0x4086280000000000
DATA expconsts<>+16(SB)/8, $0x4086280000000000
DATA expconsts<>+24(SB)/8, $0x4086280000000000
DATA expconsts<>+32(SB)/8, $0x4086200000000000  // 708.0 (v > 708: e^-v underflows)
DATA expconsts<>+40(SB)/8, $0x4086200000000000
DATA expconsts<>+48(SB)/8, $0x4086200000000000
DATA expconsts<>+56(SB)/8, $0x4086200000000000
DATA expconsts<>+64(SB)/8, $0x3ff71547652b82fe  // log2(e)
DATA expconsts<>+72(SB)/8, $0x3ff71547652b82fe
DATA expconsts<>+80(SB)/8, $0x3ff71547652b82fe
DATA expconsts<>+88(SB)/8, $0x3ff71547652b82fe
DATA expconsts<>+96(SB)/8, $0x3fe0000000000000  // 0.5 (rounding bias, poly c2)
DATA expconsts<>+104(SB)/8, $0x3fe0000000000000
DATA expconsts<>+112(SB)/8, $0x3fe0000000000000
DATA expconsts<>+120(SB)/8, $0x3fe0000000000000
DATA expconsts<>+128(SB)/8, $0x3fe62e42fee00000 // ln2hi
DATA expconsts<>+136(SB)/8, $0x3fe62e42fee00000
DATA expconsts<>+144(SB)/8, $0x3fe62e42fee00000
DATA expconsts<>+152(SB)/8, $0x3fe62e42fee00000
DATA expconsts<>+160(SB)/8, $0x3dea39ef35793c76 // ln2lo
DATA expconsts<>+168(SB)/8, $0x3dea39ef35793c76
DATA expconsts<>+176(SB)/8, $0x3dea39ef35793c76
DATA expconsts<>+184(SB)/8, $0x3dea39ef35793c76
DATA expconsts<>+192(SB)/8, $0x3efa01a01a01a01a // 1/40320
DATA expconsts<>+200(SB)/8, $0x3efa01a01a01a01a
DATA expconsts<>+208(SB)/8, $0x3efa01a01a01a01a
DATA expconsts<>+216(SB)/8, $0x3efa01a01a01a01a
DATA expconsts<>+224(SB)/8, $0x3f2a01a01a01a01a // 1/5040
DATA expconsts<>+232(SB)/8, $0x3f2a01a01a01a01a
DATA expconsts<>+240(SB)/8, $0x3f2a01a01a01a01a
DATA expconsts<>+248(SB)/8, $0x3f2a01a01a01a01a
DATA expconsts<>+256(SB)/8, $0x3f56c16c16c16c17 // 1/720
DATA expconsts<>+264(SB)/8, $0x3f56c16c16c16c17
DATA expconsts<>+272(SB)/8, $0x3f56c16c16c16c17
DATA expconsts<>+280(SB)/8, $0x3f56c16c16c16c17
DATA expconsts<>+288(SB)/8, $0x3f81111111111111 // 1/120
DATA expconsts<>+296(SB)/8, $0x3f81111111111111
DATA expconsts<>+304(SB)/8, $0x3f81111111111111
DATA expconsts<>+312(SB)/8, $0x3f81111111111111
DATA expconsts<>+320(SB)/8, $0x3fa5555555555555 // 1/24
DATA expconsts<>+328(SB)/8, $0x3fa5555555555555
DATA expconsts<>+336(SB)/8, $0x3fa5555555555555
DATA expconsts<>+344(SB)/8, $0x3fa5555555555555
DATA expconsts<>+352(SB)/8, $0x3fc5555555555555 // 1/6
DATA expconsts<>+360(SB)/8, $0x3fc5555555555555
DATA expconsts<>+368(SB)/8, $0x3fc5555555555555
DATA expconsts<>+376(SB)/8, $0x3fc5555555555555
DATA expconsts<>+384(SB)/8, $0x3ff0000000000000 // 1.0
DATA expconsts<>+392(SB)/8, $0x3ff0000000000000
DATA expconsts<>+400(SB)/8, $0x3ff0000000000000
DATA expconsts<>+408(SB)/8, $0x3ff0000000000000
DATA expconsts<>+416(SB)/8, $0x43300000000003ff // 2^52 + 1023 (exponent bias in the low mantissa bits)
DATA expconsts<>+424(SB)/8, $0x43300000000003ff
DATA expconsts<>+432(SB)/8, $0x43300000000003ff
DATA expconsts<>+440(SB)/8, $0x43300000000003ff
DATA expconsts<>+448(SB)/8, $0x8000000000000000 // sign-bit mask
DATA expconsts<>+456(SB)/8, $0x8000000000000000
DATA expconsts<>+464(SB)/8, $0x8000000000000000
DATA expconsts<>+472(SB)/8, $0x8000000000000000
GLOBL expconsts<>(SB), RODATA|NOPTR, $480

// HORNER4: one Horner step p = c + r·p on the four chains (p in Y12-Y15,
// r in Y8-Y11), c at byte offset off of the constant table R13: one
// VMULPD then one VADDPD per chain — two roundings, exactly like the
// scalar `c + r*p`.
#define HORNER4(off) \
	VMULPD  Y8, Y12, Y12    \
	VMULPD  Y9, Y13, Y13    \
	VMULPD  Y10, Y14, Y14   \
	VMULPD  Y11, Y15, Y15   \
	VADDPD  off(R13), Y12, Y12 \
	VADDPD  off(R13), Y13, Y13 \
	VADDPD  off(R13), Y14, Y14 \
	VADDPD  off(R13), Y15, Y15

// SIGMOID16: Y0-Y3 = sigmoid(Y0-Y3), one Hidden block of sixteen lanes as
// four chains interleaved instruction by instruction. The pre-activations
// v must also be stored at DI (the underflow mask reads them back, which
// leaves four registers per chain: x Y0-Y3, k Y4-Y7, r Y8-Y11, p
// Y12-Y15). R13 = &expconsts. Per lane, with x = −v, it transcribes
// sigmoid(v) = 1/(1 + fastExp(x)):
//
//	x  ← v XOR sign bit (−v, exact)
//	x  ← 709 < x ? 709 : x (VMINPD with 709 first: NaN passes through)
//	k  ← floor(x·log2e + 0.5) (VROUNDPD mode 1 = math.Floor)
//	r  ← (x − k·ln2hi) − k·ln2lo
//	p  ← Horner degree 8
//	k  → k + (2^52 + 1023), <<52: the exponent bits of 2^k. On live lanes
//	     −1021 ≤ k ≤ 1023, so the sum is exact and its low mantissa bits
//	     hold the integer k+1023 the scalar uint64(int64(k)+1023) forms
//	     (underflowed lanes are garbage here; a NaN lane stays NaN in p)
//	e  ← p · 2^k, zeroed where v > 708 (GT_OQ: false on NaN), which is
//	     exactly where the scalar x < -708 returns 0 early
//	Y  ← 1 / (1 + e)
#define SIGMOID16 \
	VXORPD  448(R13), Y0, Y0 \
	VXORPD  448(R13), Y1, Y1 \
	VXORPD  448(R13), Y2, Y2 \
	VXORPD  448(R13), Y3, Y3 \
	VMOVUPD 0(R13), Y4       \
	VMOVUPD 0(R13), Y5       \
	VMOVUPD 0(R13), Y6       \
	VMOVUPD 0(R13), Y7       \
	VMINPD  Y0, Y4, Y0       \
	VMINPD  Y1, Y5, Y1       \
	VMINPD  Y2, Y6, Y2       \
	VMINPD  Y3, Y7, Y3       \
	VMULPD  64(R13), Y0, Y4  \
	VMULPD  64(R13), Y1, Y5  \
	VMULPD  64(R13), Y2, Y6  \
	VMULPD  64(R13), Y3, Y7  \
	VADDPD  96(R13), Y4, Y4  \
	VADDPD  96(R13), Y5, Y5  \
	VADDPD  96(R13), Y6, Y6  \
	VADDPD  96(R13), Y7, Y7  \
	VROUNDPD $1, Y4, Y4      \
	VROUNDPD $1, Y5, Y5      \
	VROUNDPD $1, Y6, Y6      \
	VROUNDPD $1, Y7, Y7      \
	VMULPD  128(R13), Y4, Y8 \
	VMULPD  128(R13), Y5, Y9 \
	VMULPD  128(R13), Y6, Y10 \
	VMULPD  128(R13), Y7, Y11 \
	VSUBPD  Y8, Y0, Y8       \
	VSUBPD  Y9, Y1, Y9       \
	VSUBPD  Y10, Y2, Y10     \
	VSUBPD  Y11, Y3, Y11     \
	VMULPD  160(R13), Y4, Y12 \
	VMULPD  160(R13), Y5, Y13 \
	VMULPD  160(R13), Y6, Y14 \
	VMULPD  160(R13), Y7, Y15 \
	VSUBPD  Y12, Y8, Y8      \
	VSUBPD  Y13, Y9, Y9      \
	VSUBPD  Y14, Y10, Y10    \
	VSUBPD  Y15, Y11, Y11    \
	VMOVUPD 192(R13), Y12    \
	VMOVUPD 192(R13), Y13    \
	VMOVUPD 192(R13), Y14    \
	VMOVUPD 192(R13), Y15    \
	HORNER4(224)             \
	HORNER4(256)             \
	HORNER4(288)             \
	HORNER4(320)             \
	HORNER4(352)             \
	HORNER4(96)              \
	HORNER4(384)             \
	HORNER4(384)             \
	VADDPD  416(R13), Y4, Y4 \
	VADDPD  416(R13), Y5, Y5 \
	VADDPD  416(R13), Y6, Y6 \
	VADDPD  416(R13), Y7, Y7 \
	VPSLLQ  $52, Y4, Y4      \
	VPSLLQ  $52, Y5, Y5      \
	VPSLLQ  $52, Y6, Y6      \
	VPSLLQ  $52, Y7, Y7      \
	VMULPD  Y4, Y12, Y0      \
	VMULPD  Y5, Y13, Y1      \
	VMULPD  Y6, Y14, Y2      \
	VMULPD  Y7, Y15, Y3      \
	VMOVUPD (DI), Y8         \
	VMOVUPD 32(DI), Y9       \
	VMOVUPD 64(DI), Y10      \
	VMOVUPD 96(DI), Y11      \
	VCMPPD  $0x1e, 32(R13), Y8, Y8 \
	VCMPPD  $0x1e, 32(R13), Y9, Y9 \
	VCMPPD  $0x1e, 32(R13), Y10, Y10 \
	VCMPPD  $0x1e, 32(R13), Y11, Y11 \
	VANDNPD Y0, Y8, Y0       \
	VANDNPD Y1, Y9, Y1       \
	VANDNPD Y2, Y10, Y2      \
	VANDNPD Y3, Y11, Y3      \
	VADDPD  384(R13), Y0, Y0 \
	VADDPD  384(R13), Y1, Y1 \
	VADDPD  384(R13), Y2, Y2 \
	VADDPD  384(R13), Y3, Y3 \
	VMOVUPD 384(R13), Y4     \
	VMOVUPD 384(R13), Y5     \
	VMOVUPD 384(R13), Y6     \
	VMOVUPD 384(R13), Y7     \
	VDIVPD  Y0, Y4, Y0       \
	VDIVPD  Y1, Y5, Y1       \
	VDIVPD  Y2, Y6, Y2       \
	VDIVPD  Y3, Y7, Y3

// func dotRows4(out, x, w *float64, rows, ldx int)
// The linear output unit, four rows per instruction:
//
//	out[b] = w[Hidden] + Σ_i w[i]·x[b*ldx+i]   for b < rows
//
// Each group of four rows is transposed in registers four columns at a
// time (no packing buffer, any row stride), and its lane sums bias-first
// then ascending i, exactly like the scalar forward. rows is a positive
// multiple of 4.
TEXT ·dotRows4(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ w+16(FP), DX
	MOVQ rows+24(FP), BX
	MOVQ ldx+32(FP), R8
	SHLQ $3, R8                 // row stride in bytes
	LEAQ (R8)(R8*2), R9         // three rows
	VBROADCASTSD HIDDEN_BYTES(DX), Y7 // bias
drgroup:
	VMOVAPD Y7, Y0              // the group's four sums
	MOVQ SI, R11                // row 0's column cursor
	MOVQ DX, R12                // weight cursor
	MOVQ $HIDDEN_VECS, R13
drblock:
	VMOVUPD (R11), Y1           // row 0, columns i..i+3
	VMOVUPD (R11)(R8*1), Y2     // row 1
	VMOVUPD (R11)(R8*2), Y3     // row 2
	VMOVUPD (R11)(R9*1), Y4     // row 3
	VUNPCKLPD Y2, Y1, Y5        // r0[i] r1[i] r0[i+2] r1[i+2]
	VUNPCKHPD Y2, Y1, Y6        // r0[i+1] r1[i+1] r0[i+3] r1[i+3]
	VUNPCKLPD Y4, Y3, Y1        // r2[i] r3[i] r2[i+2] r3[i+2]
	VUNPCKHPD Y4, Y3, Y2        // r2[i+1] r3[i+1] r2[i+3] r3[i+3]
	VPERM2F128 $0x20, Y1, Y5, Y3 // column i of the four rows
	VPERM2F128 $0x20, Y2, Y6, Y4 // column i+1
	VPERM2F128 $0x31, Y1, Y5, Y5 // column i+2
	VPERM2F128 $0x31, Y2, Y6, Y6 // column i+3
	VBROADCASTSD (R12), Y1
	VMULPD  Y3, Y1, Y1
	VADDPD  Y1, Y0, Y0
	VBROADCASTSD 8(R12), Y1
	VMULPD  Y4, Y1, Y1
	VADDPD  Y1, Y0, Y0
	VBROADCASTSD 16(R12), Y1
	VMULPD  Y5, Y1, Y1
	VADDPD  Y1, Y0, Y0
	VBROADCASTSD 24(R12), Y1
	VMULPD  Y6, Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ $32, R11
	ADDQ $32, R12
	DECQ R13
	JNZ  drblock
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	LEAQ (SI)(R8*4), SI         // next four rows
	SUBQ $4, BX
	JNZ  drgroup
	VZEROUPPER
	RET

// func stackForward16(acts, wT, x *float64, lanes, inDim int)
// The hidden activations of a stacked ensemble (stack.go) for one input
// x: wT is (inDim+1) feature-major rows of `lanes` columns, bias row
// first, and
//
//	acts[u] = sigmoid( wT[u] + Σ_i wT[(i+1)*lanes+u]·x[i] )
//
// One Hidden block of sixteen lanes per step: its four pre-activation
// vectors share each broadcast of x[i], every lane accumulating bias-first
// then ascending i with a separate multiply and add, exactly like the
// scalar forward; the block's pre-activations are stored, then SIGMOID16
// runs its four chains and overwrites them. lanes is a positive multiple
// of Hidden, inDim ≥ 1.
TEXT ·stackForward16(SB), NOSPLIT, $0-40
	MOVQ acts+0(FP), DI
	MOVQ wT+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ lanes+24(FP), BX
	MOVQ inDim+32(FP), R8
	LEAQ expconsts<>(SB), R13
	MOVQ BX, R10
	SHLQ $3, R10                // row stride in bytes
	SHRQ $4, BX                 // Hidden blocks
sfblock:
	VMOVUPD (SI), Y0            // bias row
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	LEAQ (SI)(R10*1), R9        // feature-row cursor
	MOVQ DX, AX                 // x cursor
	MOVQ R8, R11
sfiloop:
	VBROADCASTSD (AX), Y4
	VMULPD  (R9), Y4, Y5
	VADDPD  Y5, Y0, Y0
	VMULPD  32(R9), Y4, Y6
	VADDPD  Y6, Y1, Y1
	VMULPD  64(R9), Y4, Y7
	VADDPD  Y7, Y2, Y2
	VMULPD  96(R9), Y4, Y8
	VADDPD  Y8, Y3, Y3
	ADDQ R10, R9
	ADDQ $8, AX
	DECQ R11
	JNZ  sfiloop
	VMOVUPD Y0, (DI)            // pre-activations, for SIGMOID16's mask
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	SIGMOID16
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $HIDDEN_BYTES, DI
	ADDQ $HIDDEN_BYTES, SI
	DECQ BX
	JNZ  sfblock
	VZEROUPPER
	RET

// func deltaRows4(t, acts, w, d *float64, rows, ld int, scale float64)
// The backprop recurrence from the linear output unit into the hidden
// layer, four units per instruction, scaled:
//
//	t[b*ld+j] = ((0 + w[j]·d[b]) · a·(1−a)) · scale
//
// with a = acts[b*ld+j], for b < rows and j < Hidden. The sum starts from
// zero like the scalar reference's, so a −0 product becomes +0. rows ≥ 1.
// The lockstep trainer passes the learning rate as scale.
TEXT ·deltaRows4(SB), NOSPLIT, $0-56
	MOVQ t+0(FP), DI
	MOVQ acts+8(FP), R9
	MOVQ w+16(FP), DX
	MOVQ d+24(FP), SI
	MOVQ rows+32(FP), BX
	MOVQ ld+40(FP), R8
	VBROADCASTSD scale+48(FP), Y7
	LEAQ expconsts<>(SB), AX
	VMOVUPD 384(AX), Y6         // 1.0
	SHLQ $3, R8                 // ld in bytes
drloop:
	VBROADCASTSD (SI), Y1       // d[b]
	XORQ AX, AX                 // j in bytes
djloop:
	VXORPD  Y0, Y0, Y0
	VMULPD  (DX)(AX*1), Y1, Y2  // w[j..j+3] · d[b]
	VADDPD  Y2, Y0, Y0          // 0 + w·d
	VMOVUPD (R9)(AX*1), Y2      // a
	VMULPD  Y2, Y0, Y0          // s·a
	VSUBPD  Y2, Y6, Y3          // 1−a
	VMULPD  Y3, Y0, Y0          // (s·a)·(1−a)
	VMULPD  Y7, Y0, Y0          // ·scale
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, $HIDDEN_BYTES
	JLT  djloop
	ADDQ R8, DI
	ADDQ R8, R9
	ADDQ $8, SI                 // next sample's delta
	DECQ BX
	JNZ  drloop
	VZEROUPPER
	RET

// SGDFM16STEP: sample b's term of one Hidden block of sgdFeatureMajor16,
// Y9-Y12 = t_b[0:16]·x_b with x_b broadcast once into Y8, advancing the t
// cursor R12 and the x cursor R13 to sample b+1.
#define SGDFM16STEP \
	VBROADCASTSD (R13), Y8 \
	VMULPD  (R12), Y8, Y9  \
	VMULPD  32(R12), Y8, Y10 \
	VMULPD  64(R12), Y8, Y11 \
	VMULPD  96(R12), Y8, Y12 \
	ADDQ R10, R12          \
	ADDQ R11, R13

// SGDFM16BLOCK: Y4-Y7 = ((t0·x0 + t1·x1) + t2·x2) + t3·x3 for one
// four-sample block of one Hidden block, advancing R12 and R13 past it.
// The first term is formed straight in Y4-Y7. Clobbers Y8-Y12.
#define SGDFM16BLOCK \
	VBROADCASTSD (R13), Y8 \
	VMULPD  (R12), Y8, Y4  \
	VMULPD  32(R12), Y8, Y5 \
	VMULPD  64(R12), Y8, Y6 \
	VMULPD  96(R12), Y8, Y7 \
	ADDQ R10, R12          \
	ADDQ R11, R13          \
	SGDFM16STEP            \
	VADDPD  Y9, Y4, Y4     \
	VADDPD  Y10, Y5, Y5    \
	VADDPD  Y11, Y6, Y6    \
	VADDPD  Y12, Y7, Y7    \
	SGDFM16STEP            \
	VADDPD  Y9, Y4, Y4     \
	VADDPD  Y10, Y5, Y5    \
	VADDPD  Y11, Y6, Y6    \
	VADDPD  Y12, Y7, Y7    \
	SGDFM16STEP            \
	VADDPD  Y9, Y4, Y4     \
	VADDPD  Y10, Y5, Y5    \
	VADDPD  Y11, Y6, Y6    \
	VADDPD  Y12, Y7, Y7

// func sgdFeatureMajor16(w, vel, t, x *float64, batch, rows, lanes, ldx int, mom float64)
// The feature-major weight update (gemm.go sgdFeatureMajor), one Hidden
// block of sixteen lanes per step and the whole batch per element: for
// each of the rows rows of lanes weights, with t_b = t[b*lanes+u] and
// x_b = x[b*ldx+i],
//
//	v = mom·v − (((t0·x0 + t1·x1) + t2·x2) + t3·x3)   first block (or v = mom·v if batch < 4)
//	v −= ((t4·x4 + t5·x5) + t6·x6) + t7·x7           each later block
//	v −= t_b·x_b                                    each straggler
//	w += v
//
// The block's four velocities (Y0-Y3) and four block sums (Y4-Y7) stay in
// registers through the whole batch, and each x_b is broadcast once for
// all four. lanes is a positive multiple of Hidden; rows, batch ≥ 1.
TEXT ·sgdFeatureMajor16(SB), NOSPLIT, $0-72
	MOVQ w+0(FP), DI
	MOVQ vel+8(FP), SI
	MOVQ t+16(FP), DX
	MOVQ x+24(FP), R8
	MOVQ rows+40(FP), R9
	MOVQ lanes+48(FP), R10
	MOVQ ldx+56(FP), R11
	VBROADCASTSD mom+64(FP), Y13
	SHLQ $3, R10                // lane row in bytes (t, w and vel rows)
	SHLQ $3, R11                // x row in bytes
fmrow:
	XORQ AX, AX                 // lane offset in bytes
fmblock:
	VMOVUPD (SI)(AX*1), Y0      // v
	VMOVUPD 32(SI)(AX*1), Y1
	VMOVUPD 64(SI)(AX*1), Y2
	VMOVUPD 96(SI)(AX*1), Y3
	LEAQ (DX)(AX*1), R12        // &t[0*lanes+u]
	MOVQ R8, R13                // &x[0*ldx+i]
	MOVQ batch+32(FP), BX       // samples left
	CMPQ BX, $4
	JLT  fmscale
	SGDFM16BLOCK
	VMULPD  Y13, Y0, Y0         // mom·v
	VMULPD  Y13, Y1, Y1
	VMULPD  Y13, Y2, Y2
	VMULPD  Y13, Y3, Y3
	VSUBPD  Y4, Y0, Y0          // − block
	VSUBPD  Y5, Y1, Y1
	VSUBPD  Y6, Y2, Y2
	VSUBPD  Y7, Y3, Y3
	SUBQ $4, BX
	JMP  fmblocks
fmscale:
	VMULPD  Y13, Y0, Y0
	VMULPD  Y13, Y1, Y1
	VMULPD  Y13, Y2, Y2
	VMULPD  Y13, Y3, Y3
fmblocks:
	CMPQ BX, $4
	JLT  fmtail
	SGDFM16BLOCK
	VSUBPD  Y4, Y0, Y0
	VSUBPD  Y5, Y1, Y1
	VSUBPD  Y6, Y2, Y2
	VSUBPD  Y7, Y3, Y3
	SUBQ $4, BX
	JMP  fmblocks
fmtail:
	TESTQ BX, BX
	JZ   fmstore
fmtloop:
	SGDFM16STEP                 // t·x
	VSUBPD  Y9, Y0, Y0
	VSUBPD  Y10, Y1, Y1
	VSUBPD  Y11, Y2, Y2
	VSUBPD  Y12, Y3, Y3
	DECQ BX
	JNZ  fmtloop
fmstore:
	VMOVUPD Y0, (SI)(AX*1)
	VMOVUPD Y1, 32(SI)(AX*1)
	VMOVUPD Y2, 64(SI)(AX*1)
	VMOVUPD Y3, 96(SI)(AX*1)
	VADDPD  (DI)(AX*1), Y0, Y0  // w + v
	VADDPD  32(DI)(AX*1), Y1, Y1
	VADDPD  64(DI)(AX*1), Y2, Y2
	VADDPD  96(DI)(AX*1), Y3, Y3
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y1, 32(DI)(AX*1)
	VMOVUPD Y2, 64(DI)(AX*1)
	VMOVUPD Y3, 96(DI)(AX*1)
	ADDQ $HIDDEN_BYTES, AX
	CMPQ AX, R10
	JLT  fmblock
	ADDQ R10, SI
	ADDQ R10, DI
	ADDQ $8, R8                 // next input
	DECQ R9
	JNZ  fmrow
	VZEROUPPER
	RET

// SGDBLOCK: Y0 = ((t0·x0[i..i+3] + t1·x1[..]) + t2·x2[..]) + t3·x3[..] at
// byte offset AX, with t0..t3 broadcast in Y4..Y7 and the rows x0..x3 at
// SI, DX, R8, R9. Clobbers Y1.
#define SGDBLOCK \
	VMOVUPD (SI)(AX*1), Y0 \
	VMULPD  Y4, Y0, Y0     \
	VMOVUPD (DX)(AX*1), Y1 \
	VMULPD  Y5, Y1, Y1     \
	VADDPD  Y1, Y0, Y0     \
	VMOVUPD (R8)(AX*1), Y1 \
	VMULPD  Y6, Y1, Y1     \
	VADDPD  Y1, Y0, Y0     \
	VMOVUPD (R9)(AX*1), Y1 \
	VMULPD  Y7, Y1, Y1     \
	VADDPD  Y1, Y0, Y0

// SGDLOADT: Y4..Y7 = t_k = lr·d[k] (k < 4) of one four-sample block, with
// lr in Y9 and d at R10.
#define SGDLOADT \
	VBROADCASTSD (R10), Y4     \
	VMULPD Y9, Y4, Y4          \
	VBROADCASTSD 8(R10), Y5    \
	VMULPD Y9, Y5, Y5          \
	VBROADCASTSD 16(R10), Y6   \
	VMULPD Y9, Y6, Y6          \
	VBROADCASTSD 24(R10), Y7   \
	VMULPD Y9, Y7, Y7

// func sgdFoldAll(vel, x0, x1, x2, x3, d *float64, lr, mom float64)
// The momentum-folding first block of the output unit's update. With
// t_k = lr·d[k]:
//
//	vel[i]      = mom·v − (((t0·x0[i] + t1·x1[i]) + t2·x2[i]) + t3·x3[i])   i < Hidden
//	vel[Hidden] = mom·v − (((t0 + t1) + t2) + t3)
//
// The Hidden weights run four lanes wide; the bias uses scalar AVX ops
// with the reference's exact association.
TEXT ·sgdFoldAll(SB), NOSPLIT, $0-64
	MOVQ vel+0(FP), DI
	MOVQ x0+8(FP), SI
	MOVQ x1+16(FP), DX
	MOVQ x2+24(FP), R8
	MOVQ x3+32(FP), R9
	MOVQ d+40(FP), R10
	VBROADCASTSD lr+48(FP), Y9
	VBROADCASTSD mom+56(FP), Y8
	SGDLOADT
	XORQ AX, AX
sfavloop:
	SGDBLOCK
	VMOVUPD (DI)(AX*1), Y2
	VMULPD  Y8, Y2, Y2          // mom·v
	VSUBPD  Y0, Y2, Y2          // − sum
	VMOVUPD Y2, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, $HIDDEN_BYTES
	JLT  sfavloop
	VADDSD X5, X4, X10          // (t0+t1)
	VADDSD X6, X10, X10         // +t2
	VADDSD X7, X10, X10         // +t3
	VMOVSD HIDDEN_BYTES(DI), X2
	VMULSD X8, X2, X2
	VSUBSD X10, X2, X2
	VMOVSD X2, HIDDEN_BYTES(DI)
	VZEROUPPER
	RET

// func sgdAxpyAll(vel, x0, x1, x2, x3, d *float64, lr float64)
// A non-folding 4-sample block of the output unit's update:
//
//	vel[i]      −= ((t0·x0[i] + t1·x1[i]) + t2·x2[i]) + t3·x3[i]   i < Hidden
//	vel[Hidden] −= ((t0 + t1) + t2) + t3
//
// with t_k = lr·d[k]. Same bias handling as sgdFoldAll.
TEXT ·sgdAxpyAll(SB), NOSPLIT, $0-56
	MOVQ vel+0(FP), DI
	MOVQ x0+8(FP), SI
	MOVQ x1+16(FP), DX
	MOVQ x2+24(FP), R8
	MOVQ x3+32(FP), R9
	MOVQ d+40(FP), R10
	VBROADCASTSD lr+48(FP), Y9
	SGDLOADT
	XORQ AX, AX
savloop:
	SGDBLOCK
	VMOVUPD (DI)(AX*1), Y2
	VSUBPD  Y0, Y2, Y2
	VMOVUPD Y2, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, $HIDDEN_BYTES
	JLT  savloop
	VADDSD X5, X4, X10
	VADDSD X6, X10, X10
	VADDSD X7, X10, X10
	VMOVSD HIDDEN_BYTES(DI), X2
	VSUBSD X10, X2, X2
	VMOVSD X2, HIDDEN_BYTES(DI)
	VZEROUPPER
	RET

// func axpyNegAll(vel, x, d *float64, lr float64)
// A single straggler sample of the output unit's update: with t = lr·d[0],
// vel[i] −= t·x[i] for i < Hidden and vel[Hidden] −= t.
TEXT ·axpyNegAll(SB), NOSPLIT, $0-32
	MOVQ vel+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ d+16(FP), R10
	VBROADCASTSD lr+24(FP), Y9
	VBROADCASTSD (R10), Y4
	VMULPD Y9, Y4, Y4           // t = lr·d
	XORQ AX, AX
anvloop:
	VMOVUPD (SI)(AX*1), Y0
	VMULPD  Y4, Y0, Y0
	VMOVUPD (DI)(AX*1), Y1
	VSUBPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, $HIDDEN_BYTES
	JLT  anvloop
	VMOVSD HIDDEN_BYTES(DI), X2
	VSUBSD X4, X2, X2
	VMOVSD X2, HIDDEN_BYTES(DI)
	VZEROUPPER
	RET

// func vecScale4(v *float64, n int, s float64)
// v[i] = s·v[i] for i < n; n is a multiple of 4.
TEXT ·vecScale4(SB), NOSPLIT, $0-24
	MOVQ v+0(FP), DI
	MOVQ n+8(FP), CX
	VBROADCASTSD s+16(FP), Y4
	SHRQ $2, CX
	JZ   vsdone
vsloop:
	VMOVUPD (DI), Y0
	VMULPD  Y4, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	DECQ CX
	JNZ  vsloop
vsdone:
	VZEROUPPER
	RET

// func vecAdd4(dst, src *float64, n int)
// dst[i] += src[i] for i < n; n is a multiple of 4.
TEXT ·vecAdd4(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $2, CX
	JZ   vadone
valoop:
	VMOVUPD (DI), Y0
	VADDPD  (SI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	DECQ CX
	JNZ  valoop
vadone:
	VZEROUPPER
	RET
