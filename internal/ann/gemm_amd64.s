//go:build amd64 && !actor_noasm

// AVX2 vector kernels for the batched trainer. Every routine vectorizes
// across INDEPENDENT outputs only — four batch samples, four units, or
// four weight indices per instruction — and performs, per output, exactly
// the operation sequence of the scalar reference in gemm.go: the same
// multiplies, adds, subtracts and divides, in the same order, with no FMA
// contraction (a fused multiply-add rounds once where the reference rounds
// twice, which would break bit-identity). Reductions (the i-sums of the
// forward pass, the k-sums of backprop) always stay within one lane.
//
// The EXPCORE macro is fastExp from gemm.go transcribed operation for
// operation; see that file for the algorithm. Lanes whose input is below
// the underflow cutoff are computed anyway and zeroed at the end (the
// scalar path returns 0 early) — the discarded lanes cannot raise traps
// because SSE/AVX exceptions are masked in Go.

#include "textflag.h"

DATA expconsts<>+0(SB)/8, $0x4086280000000000   // 709.0 (overflow clamp)
DATA expconsts<>+8(SB)/8, $0x4086280000000000
DATA expconsts<>+16(SB)/8, $0x4086280000000000
DATA expconsts<>+24(SB)/8, $0x4086280000000000
DATA expconsts<>+32(SB)/8, $0xc086200000000000  // -708.0 (underflow cutoff)
DATA expconsts<>+40(SB)/8, $0xc086200000000000
DATA expconsts<>+48(SB)/8, $0xc086200000000000
DATA expconsts<>+56(SB)/8, $0xc086200000000000
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

// EXPCORE: Y0 = fastExp(Y0) for four lanes. R13 = &expconsts. Clobbers
// Y1-Y4. Transcribes gemm.go fastExp operation for operation:
//
//	Y4 ← x < -708 (LT_OQ: false on NaN, like the scalar <)
//	x  ← 709 < x ? 709 : x (VMINPD with 709 first: NaN passes through)
//	k  ← floor(x·log2e + 0.5) (VROUNDPD mode 1 = math.Floor)
//	r  ← (x − k·ln2hi) − k·ln2lo
//	p  ← Horner degree 8, each step one VMULPD then one VADDPD —
//	     two roundings, exactly like the scalar `c + r*p`
//	k  → k + (2^52 + 1023), <<52: the exponent bits of 2^k. On live lanes
//	     −1021 ≤ k ≤ 1023, so the sum is exact and its low mantissa bits
//	     hold the integer k+1023 the scalar uint64(int64(k)+1023) forms
//	     (underflowed lanes are garbage here; a NaN lane stays NaN in p)
//	Y0 ← p · 2^k, then zero the x < -708 lanes (the scalar early return)
#define EXPCORE \
	VCMPPD  $0x11, 32(R13), Y0, Y4 \
	VMOVUPD 0(R13), Y1             \
	VMINPD  Y0, Y1, Y0             \
	VMULPD  64(R13), Y0, Y1        \
	VADDPD  96(R13), Y1, Y1        \
	VROUNDPD $1, Y1, Y1            \
	VMULPD  128(R13), Y1, Y2       \
	VSUBPD  Y2, Y0, Y2             \
	VMULPD  160(R13), Y1, Y3       \
	VSUBPD  Y3, Y2, Y2             \
	VMOVUPD 192(R13), Y3           \
	VMULPD  Y2, Y3, Y3             \
	VADDPD  224(R13), Y3, Y3       \
	VMULPD  Y2, Y3, Y3             \
	VADDPD  256(R13), Y3, Y3       \
	VMULPD  Y2, Y3, Y3             \
	VADDPD  288(R13), Y3, Y3       \
	VMULPD  Y2, Y3, Y3             \
	VADDPD  320(R13), Y3, Y3       \
	VMULPD  Y2, Y3, Y3             \
	VADDPD  352(R13), Y3, Y3       \
	VMULPD  Y2, Y3, Y3             \
	VADDPD  96(R13), Y3, Y3        \
	VMULPD  Y2, Y3, Y3             \
	VADDPD  384(R13), Y3, Y3       \
	VMULPD  Y2, Y3, Y3             \
	VADDPD  384(R13), Y3, Y3       \
	VADDPD  416(R13), Y1, Y1       \
	VPSLLQ  $52, Y1, Y1            \
	VMULPD  Y1, Y3, Y0             \
	VANDNPD Y0, Y4, Y0

// func expVec4(v *float64, n int)
// v[0:n] = fastExp(v[0:n]); n must be a multiple of 4.
TEXT ·expVec4(SB), NOSPLIT, $0-16
	MOVQ v+0(FP), DI
	MOVQ n+8(FP), CX
	LEAQ expconsts<>(SB), R13
	SHRQ $2, CX
	JZ   expdone
exploop:
	VMOVUPD (DI), Y0
	EXPCORE
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	DECQ CX
	JNZ  exploop
expdone:
	VZEROUPPER
	RET

// func sigmoidVec4(v *float64, n int)
// v[0:n] = 1/(1+fastExp(-v[0:n])); n must be a multiple of 4.
TEXT ·sigmoidVec4(SB), NOSPLIT, $0-16
	MOVQ v+0(FP), DI
	MOVQ n+8(FP), CX
	LEAQ expconsts<>(SB), R13
	SHRQ $2, CX
	JZ   sigdone
sigloop:
	VMOVUPD (DI), Y0
	VXORPD  448(R13), Y0, Y0 // -x (sign flip, exact)
	EXPCORE
	VADDPD  384(R13), Y0, Y0 // 1 + e
	VMOVUPD 384(R13), Y1
	VDIVPD  Y0, Y1, Y0       // 1 / (1 + e)
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	DECQ CX
	JNZ  sigloop
sigdone:
	VZEROUPPER
	RET

// func dotRows4(out, x, w *float64, rows, inDim, ldx int)
// A one-unit dense layer, four rows per instruction:
//
//	out[b] = w[inDim] + Σ_i w[i]·x[b*ldx+i]   for b < rows
//
// Each group of four rows is transposed in registers four columns at a
// time (no packing buffer, any row stride), and its lane sums bias-first
// then ascending i, exactly like the scalar forward. rows is a positive
// multiple of 4, inDim ≥ 1.
TEXT ·dotRows4(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ w+16(FP), DX
	MOVQ rows+24(FP), BX
	MOVQ inDim+32(FP), CX
	MOVQ ldx+40(FP), R8
	SHLQ $3, R8                 // row stride in bytes
	LEAQ (R8)(R8*2), R9         // three rows
	VBROADCASTSD (DX)(CX*8), Y7 // bias
	MOVQ CX, R10
	SHRQ $2, R10                // column blocks of four
	ANDQ $3, CX                 // tail columns
drgroup:
	VMOVAPD Y7, Y0              // the group's four sums
	MOVQ SI, R11                // row 0's column cursor
	MOVQ DX, R12                // weight cursor
	MOVQ R10, R13
	TESTQ R13, R13
	JZ   drtail
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
drtail:
	MOVQ CX, R13
	TESTQ R13, R13
	JZ   drstore
drtloop:
	VMOVSD  (R11), X1           // column i of the four rows, gathered
	VMOVHPD (R11)(R8*1), X1, X1
	VMOVSD  (R11)(R8*2), X2
	VMOVHPD (R11)(R9*1), X2, X2
	VINSERTF128 $1, X2, Y1, Y1
	VBROADCASTSD (R12), Y2
	VMULPD  Y1, Y2, Y2
	VADDPD  Y2, Y0, Y0
	ADDQ $8, R11
	ADDQ $8, R12
	DECQ R13
	JNZ  drtloop
drstore:
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	LEAQ (SI)(R8*4), SI         // next four rows
	SUBQ $4, BX
	JNZ  drgroup
	VZEROUPPER
	RET

// func stackSums4(acc, wT, x *float64, lanes, inDim int)
// Pre-activations of a stacked ensemble (stack.go) for one input x: wT is
// (inDim+1) feature-major rows of `lanes` columns, bias row first, and
//
//	acc[u] = wT[u] + Σ_i wT[(i+1)*lanes+u]·x[i]
//
// Four lanes advance per instruction and four vectors share each broadcast
// of x[i]; every lane accumulates bias-first then ascending i with a
// separate multiply and add, exactly like the scalar forward. lanes is a
// positive multiple of 4, inDim ≥ 1.
TEXT ·stackSums4(SB), NOSPLIT, $0-40
	MOVQ acc+0(FP), DI
	MOVQ wT+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ lanes+24(FP), CX
	MOVQ inDim+32(FP), R8
	MOVQ CX, R10
	SHLQ $3, R10                // row stride in bytes
	SHRQ $2, CX                 // vectors
	MOVQ CX, BX
	SHRQ $2, BX                 // blocks of four vectors
	JZ   ss1setup
ss4loop:
	VMOVUPD (SI), Y0            // bias row
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	LEAQ (SI)(R10*1), R9        // feature-row cursor
	MOVQ DX, AX                 // x cursor
	MOVQ R8, R11
ss4iloop:
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
	JNZ  ss4iloop
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, SI
	DECQ BX
	JNZ  ss4loop
ss1setup:
	ANDQ $3, CX                 // leftover vectors
	JZ   ssdone
ss1loop:
	VMOVUPD (SI), Y0
	LEAQ (SI)(R10*1), R9
	MOVQ DX, AX
	MOVQ R8, R11
ss1iloop:
	VBROADCASTSD (AX), Y4
	VMULPD  (R9), Y4, Y5
	VADDPD  Y5, Y0, Y0
	ADDQ R10, R9
	ADDQ $8, AX
	DECQ R11
	JNZ  ss1iloop
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	DECQ CX
	JNZ  ss1loop
ssdone:
	VZEROUPPER
	RET

// func deltaRows4(d, acts, wNext, dNext *float64, rows, ld, units4, unitsNext, rowW int, scale float64)
// The backprop recurrence of a batch, four units per instruction, scaled:
//
//	d[b*ld+j] = ((Σ_k wNext[k*rowW+j]·dNext[b*unitsNext+k]) · a·(1−a)) · scale
//
// with a = acts[b*ld+j], for b < rows and j < units4. The k-sum starts
// from zero and ascends within each lane. units4 is a positive multiple of
// 4 (the caller handles the j tail); rows, unitsNext ≥ 1. The lockstep
// trainer passes the learning rate as scale.
TEXT ·deltaRows4(SB), NOSPLIT, $0-80
	MOVQ d+0(FP), DI
	MOVQ acts+8(FP), R9
	MOVQ wNext+16(FP), DX
	MOVQ dNext+24(FP), SI
	MOVQ rows+32(FP), BX
	MOVQ ld+40(FP), R8
	MOVQ units4+48(FP), CX
	MOVQ rowW+64(FP), R11
	VBROADCASTSD scale+72(FP), Y7
	LEAQ expconsts<>(SB), AX
	VMOVUPD 384(AX), Y6         // 1.0
	SHLQ $3, R8                 // ld in bytes
	SHLQ $3, CX                 // units4 in bytes
	SHLQ $3, R11                // rowW in bytes
drloop:
	XORQ AX, AX                 // j in bytes
djloop:
	VXORPD Y0, Y0, Y0
	LEAQ (DX)(AX*1), R13        // &wNext[j] column cursor
	MOVQ SI, R12                // dNext cursor
	MOVQ unitsNext+56(FP), R10
dkloop:
	VBROADCASTSD (R12), Y1
	VMULPD  (R13), Y1, Y1       // wNext[k*rowW+j..j+3] · dNext[k]
	VADDPD  Y1, Y0, Y0
	ADDQ R11, R13
	ADDQ $8, R12
	DECQ R10
	JNZ  dkloop
	VMOVUPD (R9)(AX*1), Y1      // a
	VMULPD  Y1, Y0, Y0          // s·a
	VSUBPD  Y1, Y6, Y2          // 1−a
	VMULPD  Y2, Y0, Y0          // (s·a)·(1−a)
	VMULPD  Y7, Y0, Y0          // ·scale
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  djloop
	ADDQ R8, DI
	ADDQ R8, R9
	MOVQ R12, SI                // next sample's dNext row
	DECQ BX
	JNZ  drloop
	VZEROUPPER
	RET

// SGDFMBLOCK: Y1 = ((t0·x0 + t1·x1) + t2·x2) + t3·x3 for one four-sample
// block of sgdFeatureMajor4, advancing the t cursor R12 and the x cursor
// R13 past it. Clobbers Y2.
#define SGDFMBLOCK \
	VBROADCASTSD (R13), Y1 \
	VMULPD  (R12), Y1, Y1  \
	ADDQ R10, R12          \
	ADDQ R11, R13          \
	VBROADCASTSD (R13), Y2 \
	VMULPD  (R12), Y2, Y2  \
	VADDPD  Y2, Y1, Y1     \
	ADDQ R10, R12          \
	ADDQ R11, R13          \
	VBROADCASTSD (R13), Y2 \
	VMULPD  (R12), Y2, Y2  \
	VADDPD  Y2, Y1, Y1     \
	ADDQ R10, R12          \
	ADDQ R11, R13          \
	VBROADCASTSD (R13), Y2 \
	VMULPD  (R12), Y2, Y2  \
	VADDPD  Y2, Y1, Y1     \
	ADDQ R10, R12          \
	ADDQ R11, R13

// func sgdFeatureMajor4(w, vel, t, x *float64, batch, rows, lanes, ldx int, mom float64)
// The feature-major weight update (gemm.go sgdFeatureMajor), four lanes
// per instruction and the whole batch per element: for each of the rows
// rows of lanes weights, with t_b = t[b*lanes+u] and x_b = x[b*ldx+i],
//
//	v = mom·v − (((t0·x0 + t1·x1) + t2·x2) + t3·x3)   first block (or v = mom·v if batch < 4)
//	v −= ((t4·x4 + t5·x5) + t6·x6) + t7·x7           each later block
//	v −= t_b·x_b                                    each straggler
//	w += v
//
// lanes is a positive multiple of 4; rows, batch ≥ 1.
TEXT ·sgdFeatureMajor4(SB), NOSPLIT, $0-72
	MOVQ w+0(FP), DI
	MOVQ vel+8(FP), SI
	MOVQ t+16(FP), DX
	MOVQ x+24(FP), R8
	MOVQ rows+40(FP), R9
	MOVQ lanes+48(FP), R10
	MOVQ ldx+56(FP), R11
	VBROADCASTSD mom+64(FP), Y8
	SHLQ $3, R10                // lane row in bytes (t, w and vel rows)
	SHLQ $3, R11                // x row in bytes
fmrow:
	XORQ AX, AX                 // lane offset in bytes
fmlane:
	VMOVUPD (SI)(AX*1), Y0      // v
	LEAQ (DX)(AX*1), R12        // &t[0*lanes+u]
	MOVQ R8, R13                // &x[0*ldx+i]
	MOVQ batch+32(FP), BX       // samples left
	CMPQ BX, $4
	JLT  fmscale
	SGDFMBLOCK
	VMULPD  Y8, Y0, Y0          // mom·v
	VSUBPD  Y1, Y0, Y0          // − block
	SUBQ $4, BX
	JMP  fmblocks
fmscale:
	VMULPD  Y8, Y0, Y0
fmblocks:
	CMPQ BX, $4
	JLT  fmtail
	SGDFMBLOCK
	VSUBPD  Y1, Y0, Y0
	SUBQ $4, BX
	JMP  fmblocks
fmtail:
	TESTQ BX, BX
	JZ   fmstore
fmtloop:
	VBROADCASTSD (R13), Y1
	VMULPD  (R12), Y1, Y1       // t·x
	VSUBPD  Y1, Y0, Y0
	ADDQ R10, R12
	ADDQ R11, R13
	DECQ BX
	JNZ  fmtloop
fmstore:
	VMOVUPD Y0, (SI)(AX*1)
	VADDPD  (DI)(AX*1), Y0, Y1  // w + v
	VMOVUPD Y1, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, R10
	JLT  fmlane
	ADDQ R10, SI
	ADDQ R10, DI
	ADDQ $8, R8                 // next input
	DECQ R9
	JNZ  fmrow
	VZEROUPPER
	RET

// func sgdFoldAll(vel, x0, x1, x2, x3, d *float64, units, inDim int, lr, mom float64)
// The momentum-folding first block of the weight update, all units in one
// call. For each unit j (t_k = lr·d[k·units+j], rowW = inDim+1):
//
//	vel[j*rowW+i]     = mom·v − (((t0·x0[i] + t1·x1[i]) + t2·x2[i]) + t3·x3[i])
//	vel[j*rowW+inDim] = mom·v − (((t0 + t1) + t2) + t3)
//
// Interior i runs four lanes wide; the i tail and the bias column use
// scalar AVX ops with the reference's exact association. units ≥ 1.
TEXT ·sgdFoldAll(SB), NOSPLIT, $0-80
	MOVQ vel+0(FP), DI
	MOVQ x0+8(FP), SI
	MOVQ x1+16(FP), DX
	MOVQ x2+24(FP), R8
	MOVQ x3+32(FP), R9
	MOVQ d+40(FP), R10
	MOVQ units+48(FP), CX
	MOVQ inDim+56(FP), R13
	VBROADCASTSD lr+64(FP), Y9
	VBROADCASTSD mom+72(FP), Y8
	MOVQ CX, R11
	SHLQ $3, R11                // d stride: units·8 bytes
	LEAQ (R11)(R11*2), BX       // 3·units·8 bytes
	MOVQ R13, R12
	ANDQ $-4, R12
	SHLQ $3, R12                // vector span: (inDim&^3)·8 bytes
	SHLQ $3, R13                // row span: inDim·8 bytes (bias offset)
sfajloop:
	VBROADCASTSD (R10), Y4      // t0 = lr·d[j]
	VMULPD Y9, Y4, Y4
	VBROADCASTSD (R10)(R11*1), Y5
	VMULPD Y9, Y5, Y5
	VBROADCASTSD (R10)(R11*2), Y6
	VMULPD Y9, Y6, Y6
	VBROADCASTSD (R10)(BX*1), Y7
	VMULPD Y9, Y7, Y7
	XORQ AX, AX
	CMPQ AX, R12
	JGE  sfatail
sfavloop:
	VMOVUPD (SI)(AX*1), Y0
	VMULPD  Y4, Y0, Y0          // t0·x0
	VMOVUPD (DX)(AX*1), Y1
	VMULPD  Y5, Y1, Y1
	VADDPD  Y1, Y0, Y0          // + t1·x1
	VMOVUPD (R8)(AX*1), Y1
	VMULPD  Y6, Y1, Y1
	VADDPD  Y1, Y0, Y0          // + t2·x2
	VMOVUPD (R9)(AX*1), Y1
	VMULPD  Y7, Y1, Y1
	VADDPD  Y1, Y0, Y0          // + t3·x3
	VMOVUPD (DI)(AX*1), Y2
	VMULPD  Y8, Y2, Y2          // mom·v
	VSUBPD  Y0, Y2, Y2          // − sum
	VMOVUPD Y2, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, R12
	JLT  sfavloop
sfatail:
	CMPQ AX, R13
	JGE  sfabias
sfatloop:
	VMOVSD (SI)(AX*1), X0
	VMULSD X4, X0, X0
	VMOVSD (DX)(AX*1), X1
	VMULSD X5, X1, X1
	VADDSD X1, X0, X0
	VMOVSD (R8)(AX*1), X1
	VMULSD X6, X1, X1
	VADDSD X1, X0, X0
	VMOVSD (R9)(AX*1), X1
	VMULSD X7, X1, X1
	VADDSD X1, X0, X0
	VMOVSD (DI)(AX*1), X2
	VMULSD X8, X2, X2
	VSUBSD X0, X2, X2
	VMOVSD X2, (DI)(AX*1)
	ADDQ $8, AX
	CMPQ AX, R13
	JLT  sfatloop
sfabias:
	VADDSD X5, X4, X10          // (t0+t1)
	VADDSD X6, X10, X10         // +t2
	VADDSD X7, X10, X10         // +t3
	VMOVSD (DI)(R13*1), X2
	VMULSD X8, X2, X2
	VSUBSD X10, X2, X2
	VMOVSD X2, (DI)(R13*1)
	LEAQ 8(DI)(R13*1), DI       // next vel row (rowW doubles)
	ADDQ $8, R10                // next unit's d column
	DECQ CX
	JNZ  sfajloop
	VZEROUPPER
	RET

// func sgdAxpyAll(vel, x0, x1, x2, x3, d *float64, units, inDim int, lr float64)
// A non-folding 4-sample block of the weight update, all units in one call:
//
//	vel[j*rowW+i]     −= ((t0·x0[i] + t1·x1[i]) + t2·x2[i]) + t3·x3[i]
//	vel[j*rowW+inDim] −= ((t0 + t1) + t2) + t3
//
// with t_k = lr·d[k·units+j]. Same tail/bias handling as sgdFoldAll.
TEXT ·sgdAxpyAll(SB), NOSPLIT, $0-72
	MOVQ vel+0(FP), DI
	MOVQ x0+8(FP), SI
	MOVQ x1+16(FP), DX
	MOVQ x2+24(FP), R8
	MOVQ x3+32(FP), R9
	MOVQ d+40(FP), R10
	MOVQ units+48(FP), CX
	MOVQ inDim+56(FP), R13
	VBROADCASTSD lr+64(FP), Y9
	MOVQ CX, R11
	SHLQ $3, R11
	LEAQ (R11)(R11*2), BX
	MOVQ R13, R12
	ANDQ $-4, R12
	SHLQ $3, R12
	SHLQ $3, R13
sajloop:
	VBROADCASTSD (R10), Y4
	VMULPD Y9, Y4, Y4
	VBROADCASTSD (R10)(R11*1), Y5
	VMULPD Y9, Y5, Y5
	VBROADCASTSD (R10)(R11*2), Y6
	VMULPD Y9, Y6, Y6
	VBROADCASTSD (R10)(BX*1), Y7
	VMULPD Y9, Y7, Y7
	XORQ AX, AX
	CMPQ AX, R12
	JGE  satail
savloop:
	VMOVUPD (SI)(AX*1), Y0
	VMULPD  Y4, Y0, Y0
	VMOVUPD (DX)(AX*1), Y1
	VMULPD  Y5, Y1, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD (R8)(AX*1), Y1
	VMULPD  Y6, Y1, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD (R9)(AX*1), Y1
	VMULPD  Y7, Y1, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD (DI)(AX*1), Y2
	VSUBPD  Y0, Y2, Y2
	VMOVUPD Y2, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, R12
	JLT  savloop
satail:
	CMPQ AX, R13
	JGE  sabias
satloop:
	VMOVSD (SI)(AX*1), X0
	VMULSD X4, X0, X0
	VMOVSD (DX)(AX*1), X1
	VMULSD X5, X1, X1
	VADDSD X1, X0, X0
	VMOVSD (R8)(AX*1), X1
	VMULSD X6, X1, X1
	VADDSD X1, X0, X0
	VMOVSD (R9)(AX*1), X1
	VMULSD X7, X1, X1
	VADDSD X1, X0, X0
	VMOVSD (DI)(AX*1), X2
	VSUBSD X0, X2, X2
	VMOVSD X2, (DI)(AX*1)
	ADDQ $8, AX
	CMPQ AX, R13
	JLT  satloop
sabias:
	VADDSD X5, X4, X10
	VADDSD X6, X10, X10
	VADDSD X7, X10, X10
	VMOVSD (DI)(R13*1), X2
	VSUBSD X10, X2, X2
	VMOVSD X2, (DI)(R13*1)
	LEAQ 8(DI)(R13*1), DI
	ADDQ $8, R10
	DECQ CX
	JNZ  sajloop
	VZEROUPPER
	RET

// func axpyNegAll(vel, x, d *float64, units, inDim int, lr float64)
// A single straggler sample of the weight update, all units in one call:
// with t = lr·d[j], vel[j*rowW+i] −= t·x[i] and vel[j*rowW+inDim] −= t.
TEXT ·axpyNegAll(SB), NOSPLIT, $0-48
	MOVQ vel+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ d+16(FP), R10
	MOVQ units+24(FP), CX
	MOVQ inDim+32(FP), R13
	VBROADCASTSD lr+40(FP), Y9
	MOVQ R13, R12
	ANDQ $-4, R12
	SHLQ $3, R12
	SHLQ $3, R13
anjloop:
	VBROADCASTSD (R10), Y4
	VMULPD Y9, Y4, Y4           // t = lr·d[j]
	XORQ AX, AX
	CMPQ AX, R12
	JGE  antail
anvloop:
	VMOVUPD (SI)(AX*1), Y0
	VMULPD  Y4, Y0, Y0
	VMOVUPD (DI)(AX*1), Y1
	VSUBPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, R12
	JLT  anvloop
antail:
	CMPQ AX, R13
	JGE  anbias
antloop:
	VMOVSD (SI)(AX*1), X0
	VMULSD X4, X0, X0
	VMOVSD (DI)(AX*1), X1
	VSUBSD X0, X1, X1
	VMOVSD X1, (DI)(AX*1)
	ADDQ $8, AX
	CMPQ AX, R13
	JLT  antloop
anbias:
	VMOVSD (DI)(R13*1), X2
	VSUBSD X4, X2, X2
	VMOVSD X2, (DI)(R13*1)
	LEAQ 8(DI)(R13*1), DI
	ADDQ $8, R10
	DECQ CX
	JNZ  anjloop
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
