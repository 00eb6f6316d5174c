#include "textflag.h"

// The package's CPUID probe and the AVX2 dense product kernel. See
// vector_amd64.go for the gate and for gemmVector's exactness argument.

// func cpuAVX2() bool
TEXT ·cpuAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX
	ANDL $1, BX
	MOVB BX, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// gemmTail holds sixteen all-ones quadwords, then sixteen zero ones. The
// sixteen from index 16-rem on are the lane masks of a tile's first rem
// columns.
DATA gemmTail<>+0x00(SB)/8, $-1
DATA gemmTail<>+0x08(SB)/8, $-1
DATA gemmTail<>+0x10(SB)/8, $-1
DATA gemmTail<>+0x18(SB)/8, $-1
DATA gemmTail<>+0x20(SB)/8, $-1
DATA gemmTail<>+0x28(SB)/8, $-1
DATA gemmTail<>+0x30(SB)/8, $-1
DATA gemmTail<>+0x38(SB)/8, $-1
DATA gemmTail<>+0x40(SB)/8, $-1
DATA gemmTail<>+0x48(SB)/8, $-1
DATA gemmTail<>+0x50(SB)/8, $-1
DATA gemmTail<>+0x58(SB)/8, $-1
DATA gemmTail<>+0x60(SB)/8, $-1
DATA gemmTail<>+0x68(SB)/8, $-1
DATA gemmTail<>+0x70(SB)/8, $-1
DATA gemmTail<>+0x78(SB)/8, $-1
GLOBL gemmTail<>(SB), RODATA|NOPTR, $256

// Ordered, non-signalling less-than: false on a NaN lane.
#define LT_OQ 0x11

// TERM2(A, ACC0, ACC1) adds one term to two accumulators of a row: the
// broadcast a at A times the b vectors in Y8 and Y9, as a multiply and
// then an add. Clobbers Y10, Y11.
#define TERM2(A, ACC0, ACC1) \
	VBROADCASTSD A, Y10; \
	VMULPD       Y8, Y10, Y11; \
	VADDPD       Y11, ACC0, ACC0; \
	VMULPD       Y9, Y10, Y10; \
	VADDPD       Y10, ACC1, ACC1

// TERMS4X8 adds term k to a four-row tile: the rows' a at AX, AX+R8,
// AX+2*R8 and AX+R9, times b in Y8 and Y9, into Y0-Y7.
#define TERMS4X8 \
	TERM2((AX), Y0, Y1); \
	TERM2((AX)(R8*1), Y2, Y3); \
	TERM2((AX)(R8*2), Y4, Y5); \
	TERM2((AX)(R9*1), Y6, Y7)

// TERM1(B, ACC, T) adds one term to a one-row accumulator: the broadcast
// a in Y12 times the b vector in B. Clobbers T.
#define TERM1(B, ACC, T) \
	VMULPD B, Y12, T; \
	VADDPD T, ACC, ACC

// RELU(V) zeroes the lanes of V that compare below zero. -0 and NaN do
// not, so they pass through as relu0 passes them. Y15 must hold +0;
// clobbers Y14.
#define RELU(V) \
	VCMPPD  $LT_OQ, Y15, V, Y14; \
	VANDNPD V, Y14, V

// func gemmAVX2(c *float64, ldc int, a *float64, lda int, b *float64, ldb int, rows, cols, kn int, bias *float64, relu bool)
//
// DI and SI address the current band's first row of c and a; R8 is lda
// in bytes and R9 three times that, R10 ldb and R11 ldc in bytes; R12
// counts the rows left, R13 holds cols, DX kn, and R14 the column of the
// current tile. AX and BX run over a and b in the k loop, CX counts it.
TEXT ·gemmAVX2(SB), NOSPLIT, $0-81
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R11
	SHLQ $3, R11
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R8
	SHLQ $3, R8
	LEAQ (R8)(R8*2), R9
	MOVQ ldb+40(FP), R10
	SHLQ $3, R10
	MOVQ rows+48(FP), R12
	MOVQ cols+56(FP), R13
	MOVQ kn+64(FP), DX
	VXORPD Y15, Y15, Y15

band4:
	// Four rows at a time, in tiles of eight columns.
	CMPQ R12, $4
	JLT  band1
	XORQ R14, R14

tile4:
	MOVQ R13, CX
	SUBQ R14, CX
	JZ   band4next
	CMPQ CX, $8
	JLT  tail4

	MOVQ  bias+72(FP), BX
	TESTQ BX, BX
	JZ    zero4
	VMOVUPD (BX)(R14*8), Y0
	VMOVUPD 32(BX)(R14*8), Y1
	JMP   init4

zero4:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

init4:
	VMOVAPD Y0, Y2
	VMOVAPD Y1, Y3
	VMOVAPD Y0, Y4
	VMOVAPD Y1, Y5
	VMOVAPD Y0, Y6
	VMOVAPD Y1, Y7
	MOVQ    SI, AX
	MOVQ    b+32(FP), BX
	LEAQ    (BX)(R14*8), BX
	MOVQ    DX, CX
	TESTQ   CX, CX
	JZ      sum4

loop4:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	TERMS4X8
	ADDQ    $8, AX
	ADDQ    R10, BX
	DECQ    CX
	JNZ     loop4

sum4:
	CMPB relu+80(FP), $0
	JEQ  store4
	RELU(Y0)
	RELU(Y1)
	RELU(Y2)
	RELU(Y3)
	RELU(Y4)
	RELU(Y5)
	RELU(Y6)
	RELU(Y7)

store4:
	LEAQ    (DI)(R14*8), BX
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, 32(BX)
	VMOVUPD Y2, (BX)(R11*1)
	VMOVUPD Y3, 32(BX)(R11*1)
	LEAQ    (BX)(R11*2), BX
	VMOVUPD Y4, (BX)
	VMOVUPD Y5, 32(BX)
	VMOVUPD Y6, (BX)(R11*1)
	VMOVUPD Y7, 32(BX)(R11*1)
	ADDQ    $8, R14
	JMP     tile4

tail4:
	// The last 1-7 columns, under the lane masks Y12 and Y13.
	MOVQ    $16, BX
	SUBQ    CX, BX
	LEAQ    gemmTail<>(SB), AX
	VMOVUPD (AX)(BX*8), Y12
	VMOVUPD 32(AX)(BX*8), Y13
	MOVQ    bias+72(FP), BX
	TESTQ   BX, BX
	JZ      zeroTail4
	VMASKMOVPD (BX)(R14*8), Y12, Y0
	VMASKMOVPD 32(BX)(R14*8), Y13, Y1
	JMP     initTail4

zeroTail4:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

initTail4:
	VMOVAPD Y0, Y2
	VMOVAPD Y1, Y3
	VMOVAPD Y0, Y4
	VMOVAPD Y1, Y5
	VMOVAPD Y0, Y6
	VMOVAPD Y1, Y7
	MOVQ    SI, AX
	MOVQ    b+32(FP), BX
	LEAQ    (BX)(R14*8), BX
	MOVQ    DX, CX
	TESTQ   CX, CX
	JZ      sumTail4

loopTail4:
	VMASKMOVPD (BX), Y12, Y8
	VMASKMOVPD 32(BX), Y13, Y9
	TERMS4X8
	ADDQ       $8, AX
	ADDQ       R10, BX
	DECQ       CX
	JNZ        loopTail4

sumTail4:
	CMPB relu+80(FP), $0
	JEQ  storeTail4
	RELU(Y0)
	RELU(Y1)
	RELU(Y2)
	RELU(Y3)
	RELU(Y4)
	RELU(Y5)
	RELU(Y6)
	RELU(Y7)

storeTail4:
	LEAQ       (DI)(R14*8), BX
	VMASKMOVPD Y0, Y12, (BX)
	VMASKMOVPD Y1, Y13, 32(BX)
	VMASKMOVPD Y2, Y12, (BX)(R11*1)
	VMASKMOVPD Y3, Y13, 32(BX)(R11*1)
	LEAQ       (BX)(R11*2), BX
	VMASKMOVPD Y4, Y12, (BX)
	VMASKMOVPD Y5, Y13, 32(BX)
	VMASKMOVPD Y6, Y12, (BX)(R11*1)
	VMASKMOVPD Y7, Y13, 32(BX)(R11*1)

band4next:
	LEAQ (SI)(R8*4), SI
	LEAQ (DI)(R11*4), DI
	SUBQ $4, R12
	JMP  band4

band1:
	// The last 0-3 rows one at a time, in tiles of sixteen columns.
	TESTQ R12, R12
	JZ    done
	XORQ  R14, R14

tile1:
	MOVQ R13, CX
	SUBQ R14, CX
	JZ   band1next
	CMPQ CX, $16
	JLT  tail1

	MOVQ  bias+72(FP), BX
	TESTQ BX, BX
	JZ    zero1
	VMOVUPD (BX)(R14*8), Y0
	VMOVUPD 32(BX)(R14*8), Y1
	VMOVUPD 64(BX)(R14*8), Y2
	VMOVUPD 96(BX)(R14*8), Y3
	JMP   init1

zero1:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

init1:
	MOVQ  SI, AX
	MOVQ  b+32(FP), BX
	LEAQ  (BX)(R14*8), BX
	MOVQ  DX, CX
	TESTQ CX, CX
	JZ    sum1

loop1:
	VBROADCASTSD (AX), Y12
	TERM1((BX), Y0, Y8)
	TERM1(32(BX), Y1, Y9)
	TERM1(64(BX), Y2, Y10)
	TERM1(96(BX), Y3, Y11)
	ADDQ         $8, AX
	ADDQ         R10, BX
	DECQ         CX
	JNZ          loop1

sum1:
	CMPB relu+80(FP), $0
	JEQ  store1
	RELU(Y0)
	RELU(Y1)
	RELU(Y2)
	RELU(Y3)

store1:
	LEAQ    (DI)(R14*8), BX
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, 32(BX)
	VMOVUPD Y2, 64(BX)
	VMOVUPD Y3, 96(BX)
	ADDQ    $16, R14
	JMP     tile1

tail1:
	// The last 1-15 columns, under the lane masks Y4-Y7.
	MOVQ    $16, BX
	SUBQ    CX, BX
	LEAQ    gemmTail<>(SB), AX
	VMOVUPD (AX)(BX*8), Y4
	VMOVUPD 32(AX)(BX*8), Y5
	VMOVUPD 64(AX)(BX*8), Y6
	VMOVUPD 96(AX)(BX*8), Y7
	MOVQ    bias+72(FP), BX
	TESTQ   BX, BX
	JZ      zeroTail1
	VMASKMOVPD (BX)(R14*8), Y4, Y0
	VMASKMOVPD 32(BX)(R14*8), Y5, Y1
	VMASKMOVPD 64(BX)(R14*8), Y6, Y2
	VMASKMOVPD 96(BX)(R14*8), Y7, Y3
	JMP     initTail1

zeroTail1:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

initTail1:
	MOVQ  SI, AX
	MOVQ  b+32(FP), BX
	LEAQ  (BX)(R14*8), BX
	MOVQ  DX, CX
	TESTQ CX, CX
	JZ    sumTail1

loopTail1:
	VBROADCASTSD (AX), Y12
	VMASKMOVPD   (BX), Y4, Y8
	TERM1(Y8, Y0, Y8)
	VMASKMOVPD   32(BX), Y5, Y9
	TERM1(Y9, Y1, Y9)
	VMASKMOVPD   64(BX), Y6, Y10
	TERM1(Y10, Y2, Y10)
	VMASKMOVPD   96(BX), Y7, Y11
	TERM1(Y11, Y3, Y11)
	ADDQ         $8, AX
	ADDQ         R10, BX
	DECQ         CX
	JNZ          loopTail1

sumTail1:
	CMPB relu+80(FP), $0
	JEQ  storeTail1
	RELU(Y0)
	RELU(Y1)
	RELU(Y2)
	RELU(Y3)

storeTail1:
	LEAQ       (DI)(R14*8), BX
	VMASKMOVPD Y0, Y4, (BX)
	VMASKMOVPD Y1, Y5, 32(BX)
	VMASKMOVPD Y2, Y6, 64(BX)
	VMASKMOVPD Y3, Y7, 96(BX)

band1next:
	ADDQ R8, SI
	ADDQ R11, DI
	DECQ R12
	JMP  band1

done:
	VZEROUPPER
	RET
