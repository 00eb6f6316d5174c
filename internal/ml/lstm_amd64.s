#include "go_asm.h"
#include "textflag.h"

// The AVX2 LSTM kernels. Each YMM register holds one value for four
// samples; see lstm_amd64.go for the exactness argument. In lstmCells4,
// R8 addresses lstmK and the constants are read as memory operands.

// Comparison predicates (ordered, non-signalling): false on a NaN lane.
#define EQ_OQ 0x00
#define LE_OQ 0x12
#define GE_OQ 0x1d
#define GT_OQ 0x1e

// EXP(V) replaces each lane of V, which must lie in [-708, 709], with
// exp_amd64.s's FMA-path Exp of it, step for step: x*LOG2E rounded to
// an integer e (VCVTPD2DQ rounds like CVTSD2SL), the fused two-part
// reduction x -= e*LN2U, x -= e*LN2L, the scaling by 1/16, the fused
// Horner steps of the Taylor series, x *= p, four squarings back up
// (x *= x+2) whose last one fuses the +1, and the multiply by 2^e. 2^e is
// built by adding 2^52+1023 to float64(e), which leaves e+1023 in the low
// mantissa bits, and shifting those into the exponent. Clobbers Y1-Y3.
#define EXP(V) \
	VMULPD       lstmConsts_log2e(R8), V, Y1; \
	VCVTPD2DQY   Y1, X3; \
	VCVTDQ2PD    X3, Y1; \
	VFNMADD231PD lstmConsts_ln2U(R8), Y1, V; \
	VFNMADD231PD lstmConsts_ln2L(R8), Y1, V; \
	VMULPD       lstmConsts_sixteenth(R8), V, V; \
	VMOVUPD      lstmConsts_exp8(R8), Y2; \
	VFMADD213PD  lstmConsts_exp7(R8), V, Y2; \
	VFMADD213PD  lstmConsts_exp6(R8), V, Y2; \
	VFMADD213PD  lstmConsts_exp5(R8), V, Y2; \
	VFMADD213PD  lstmConsts_exp4(R8), V, Y2; \
	VFMADD213PD  lstmConsts_exp3(R8), V, Y2; \
	VFMADD213PD  lstmConsts_half(R8), V, Y2; \
	VFMADD213PD  lstmConsts_one(R8), V, Y2; \
	VMULPD       Y2, V, V; \
	VADDPD       lstmConsts_two(R8), V, Y2; \
	VMULPD       Y2, V, V; \
	VADDPD       lstmConsts_two(R8), V, Y2; \
	VMULPD       Y2, V, V; \
	VADDPD       lstmConsts_two(R8), V, Y2; \
	VMULPD       Y2, V, V; \
	VADDPD       lstmConsts_two(R8), V, Y2; \
	VFMADD213PD  lstmConsts_one(R8), Y2, V; \
	VADDPD       lstmConsts_expBias(R8), Y1, Y1; \
	VPSLLQ       $52, Y1, Y1; \
	VMULPD       Y1, V, V

// SIGMOID(V) replaces each lane v of V with 1/(1+Exp(-v)). The caller
// has checked -v against [-708, 709]. Clobbers Y0-Y3.
#define SIGMOID(V) \
	VXORPD  lstmConsts_negZero(R8), V, Y0; \
	EXP(Y0); \
	VADDPD  lstmConsts_one(R8), Y0, Y0; \
	VMOVUPD lstmConsts_one(R8), V; \
	VDIVPD  Y0, V, V

// TANH(V) replaces each lane x of V with math.Tanh(x) for finite x. It
// evaluates all three of math.tanh's branches and blends in each lane's
// own: the middle branch 1-2/(Exp(2|x|)+1), negated for x < 0, from
// 0.625 on; ±1 beyond 0.5*MAXLOG; below 0.625 the rational
// approximation x + x*s*P(s)/Q(s) with s = x*x, or x itself for ±0.
// Clobbers Y0-Y3 and Y9-Y14.
#define TANH(V) \
	VANDPD    lstmConsts_absMask(R8), V, Y9; \
	VADDPD    Y9, Y9, Y0; \
	VMINPD    lstmConsts_tanhClamp(R8), Y0, Y0; \
	EXP(Y0); \
	VADDPD    lstmConsts_one(R8), Y0, Y0; \
	VMOVUPD   lstmConsts_two(R8), Y10; \
	VDIVPD    Y0, Y10, Y10; \
	VMOVUPD   lstmConsts_one(R8), Y0; \
	VSUBPD    Y10, Y0, Y10; \
	VANDPD    lstmConsts_negZero(R8), V, Y11; \
	VXORPD    Y11, Y10, Y10; \
	VMULPD    V, V, Y12; \
	VMULPD    lstmConsts_tanhP0(R8), Y12, Y13; \
	VADDPD    lstmConsts_tanhP1(R8), Y13, Y13; \
	VMULPD    Y12, Y13, Y13; \
	VADDPD    lstmConsts_tanhP2(R8), Y13, Y13; \
	VADDPD    lstmConsts_tanhQ0(R8), Y12, Y14; \
	VMULPD    Y12, Y14, Y14; \
	VADDPD    lstmConsts_tanhQ1(R8), Y14, Y14; \
	VMULPD    Y12, Y14, Y14; \
	VADDPD    lstmConsts_tanhQ2(R8), Y14, Y14; \
	VMULPD    Y12, V, Y12; \
	VMULPD    Y13, Y12, Y12; \
	VDIVPD    Y14, Y12, Y12; \
	VADDPD    Y12, V, Y12; \
	VCMPPD    $GE_OQ, lstmConsts_tanhMid(R8), Y9, Y13; \
	VBLENDVPD Y13, Y10, Y12, Y12; \
	VORPD     lstmConsts_one(R8), Y11, Y10; \
	VCMPPD    $GT_OQ, lstmConsts_tanhSat(R8), Y9, Y13; \
	VBLENDVPD Y13, Y10, Y12, Y12; \
	VXORPD    Y13, Y13, Y13; \
	VCMPPD    $EQ_OQ, Y13, V, Y13; \
	VBLENDVPD Y13, V, Y12, V

// INRANGE(V, M) clears in M the lanes of V outside [sigLo, sigHi], where
// a sigmoid's exp argument leaves [-708, 709]. Clobbers Y9.
#define INRANGE(V, M) \
	VCMPPD $GE_OQ, lstmConsts_sigLo(R8), V, Y9; \
	VANDPD Y9, M, M; \
	VCMPPD $LE_OQ, lstmConsts_sigHi(R8), V, Y9; \
	VANDPD Y9, M, M

// FINITE(V, M) sets M to the lanes of V that are finite.
#define FINITE(V, M) \
	VANDPD lstmConsts_absMask(R8), V, M; \
	VCMPPD $LE_OQ, lstmConsts_maxFinite(R8), M, M

// GATES adds one term to the four gate accumulators Y0-Y3: the inputs
// at BX times the broadcast weights at AX (gate i), AX+R12 (f), AX+2*R12
// (g) and AX+R13 (o). Clobbers Y4, Y5.
#define GATES \
	VMOVUPD      (BX), Y4; \
	VBROADCASTSD (AX), Y5; \
	VMULPD       Y4, Y5, Y5; \
	VADDPD       Y5, Y0, Y0; \
	VBROADCASTSD (AX)(R12*1), Y5; \
	VMULPD       Y4, Y5, Y5; \
	VADDPD       Y5, Y1, Y1; \
	VBROADCASTSD (AX)(R12*2), Y5; \
	VMULPD       Y4, Y5, Y5; \
	VADDPD       Y5, Y2, Y2; \
	VBROADCASTSD (AX)(R13*1), Y5; \
	VMULPD       Y4, Y5, Y5; \
	VADDPD       Y5, Y3, Y3; \
	ADDQ         $8, AX; \
	ADDQ         $32, BX

// func lstmGates4(rec, x, h, w *float64, in, units int)
TEXT ·lstmGates4(SB), NOSPLIT, $0-48
	MOVQ rec+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ h+16(FP), DX
	MOVQ w+24(FP), R8
	MOVQ in+32(FP), R9
	MOVQ units+40(FP), R10

	// R12 is one gate block's bytes, units*(in+units+1)*8; R13 three.
	LEAQ  1(R9)(R10*1), R12
	IMULQ R10, R12
	SHLQ  $3, R12
	LEAQ  (R12)(R12*2), R13
	MOVQ  R10, R11
	TESTQ R11, R11
	JZ    gatesDone

unit:
	// Each accumulator starts at its gate's bias, which follows the
	// row's in+units weights.
	LEAQ         (R8)(R9*8), AX
	LEAQ         (AX)(R10*8), AX
	VBROADCASTSD (AX), Y0
	VBROADCASTSD (AX)(R12*1), Y1
	VBROADCASTSD (AX)(R12*2), Y2
	VBROADCASTSD (AX)(R13*1), Y3
	MOVQ         R8, AX

	// Then the input terms, in order.
	MOVQ  SI, BX
	MOVQ  R9, CX
	TESTQ CX, CX
	JZ    hidden

inputs:
	GATES
	DECQ CX
	JNZ  inputs

hidden:
	// Then the hidden terms, in order.
	MOVQ  DX, BX
	MOVQ  R10, CX

hiddenLoop:
	GATES
	DECQ CX
	JNZ  hiddenLoop

	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $(const_lstmCacheWidth*32), DI
	LEAQ    8(AX), R8 // the next unit's rows follow this one's bias
	DECQ    R11
	JNZ     unit

gatesDone:
	VZEROUPPER
	RET

// func lstmCells4(rec, h *float64, units int) int
TEXT ·lstmCells4(SB), NOSPLIT, $0-32
	MOVQ rec+0(FP), SI
	MOVQ h+8(FP), DI
	MOVQ units+16(FP), CX
	LEAQ ·lstmK(SB), R8

	// Count the leading units whose every gate lane stays on the vector
	// path. Each unit's update is a chain of dependent exps; running them
	// as passes over all those units lets the units overlap.
	XORQ AX, AX
	MOVQ SI, DX

scan:
	CMPQ      AX, CX
	JGE       scanned
	VMOVUPD   64(DX), Y6
	FINITE(Y6, Y8)
	VMOVUPD   0(DX), Y4
	INRANGE(Y4, Y8)
	VMOVUPD   32(DX), Y5
	INRANGE(Y5, Y8)
	VMOVUPD   96(DX), Y7
	INRANGE(Y7, Y8)
	VMOVMSKPD Y8, BX
	CMPL      BX, $15
	JNE       scanned
	ADDQ      $(const_lstmCacheWidth*32), DX
	INCQ      AX
	JMP       scan

scanned:
	TESTQ AX, AX
	JZ    cellsDone

	// The gate activations, in place.
	MOVQ SI, DX
	MOVQ AX, CX

activate:
	VMOVUPD 0(DX), Y4
	SIGMOID(Y4)
	VMOVUPD Y4, 0(DX)
	VMOVUPD 32(DX), Y4
	SIGMOID(Y4)
	VMOVUPD Y4, 32(DX)
	VMOVUPD 96(DX), Y4
	SIGMOID(Y4)
	VMOVUPD Y4, 96(DX)
	VMOVUPD 64(DX), Y4
	TANH(Y4)
	VMOVUPD Y4, 64(DX)
	ADDQ    $(const_lstmCacheWidth*32), DX
	DECQ    CX
	JNZ     activate

	// c = f*c + i*g, tanh(c) and h = o*tanh(c). With every gate in range,
	// |c| grows by at most 1 per step, so c is finite: a NaN c in a lane
	// would have made its h NaN, and with it every pre-activation of this
	// step, which the scan sends to the scalar code.
	MOVQ SI, DX
	MOVQ AX, CX

update:
	VMOVUPD 32(DX), Y4
	VMULPD  128(DX), Y4, Y4
	VMOVUPD 0(DX), Y5
	VMULPD  64(DX), Y5, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, 128(DX)
	TANH(Y4)
	VMOVUPD Y4, 160(DX)
	VMULPD  96(DX), Y4, Y4
	VMOVUPD Y4, (DI)
	ADDQ    $(const_lstmCacheWidth*32), DX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     update

cellsDone:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET
