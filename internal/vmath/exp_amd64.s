// Four-lane exponential, bit-identical to math.Exp on amd64.
//
// math.Exp on amd64 is math.archExp (src/math/exp_amd64.s), which takes
// its FMA path on every CPU with AVX and FMA. The kernel below is that
// path with each scalar SD instruction replaced by its packed PD form over
// four lanes, in the same order and with the same constants written the
// same way, so every lane performs the same IEEE-754 operation sequence
// and rounds the same way. The scalar routine's special cases (non-finite
// input, overflow above 709.78, denormal scaling below about -708) are not
// reproduced: the kernel declines any call with a lane at or beyond
// |x| = 700 and the Go side falls back to math.Exp for all four lanes.

#include "textflag.h"

#define LOG2E 1.4426950408889634073599246810018920
#define LN2U 0.69314718055966295651160180568695068359375
#define LN2L 0.28235290563031577122588448175013436025525412068e-12

// BCAST4 lays down four copies of one float64 as a 32-byte ymm constant.
#define BCAST4(name, val) \
	DATA name<>+0(SB)/8, $val; \
	DATA name<>+8(SB)/8, $val; \
	DATA name<>+16(SB)/8, $val; \
	DATA name<>+24(SB)/8, $val; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

BCAST4(expLog2e, LOG2E)
BCAST4(expLn2u, LN2U)
BCAST4(expLn2l, LN2L)
BCAST4(expSixteenth, 0.0625)
BCAST4(expLimit, 700.0)
BCAST4(expHalf, 0.5)
BCAST4(expOne, 1.0)
BCAST4(expTwo, 2.0)
BCAST4(expC3, 1.6666666666666666667e-1)
BCAST4(expC4, 4.1666666666666666667e-2)
BCAST4(expC5, 8.3333333333333333333e-3)
BCAST4(expC6, 1.3888888888888888889e-3)
BCAST4(expC7, 1.9841269841269841270e-4)
BCAST4(expC8, 2.4801587301587301587e-5)

DATA expAbsMask<>+0(SB)/8, $0x7fffffffffffffff
DATA expAbsMask<>+8(SB)/8, $0x7fffffffffffffff
DATA expAbsMask<>+16(SB)/8, $0x7fffffffffffffff
DATA expAbsMask<>+24(SB)/8, $0x7fffffffffffffff
GLOBL expAbsMask<>(SB), RODATA|NOPTR, $32

DATA expBias<>+0(SB)/4, $0x3ff
DATA expBias<>+4(SB)/4, $0x3ff
DATA expBias<>+8(SB)/4, $0x3ff
DATA expBias<>+12(SB)/4, $0x3ff
GLOBL expBias<>(SB), RODATA|NOPTR, $16

// func exp4AVX(x *[4]float64) bool
TEXT ·exp4AVX(SB), NOSPLIT, $0-9
	// Load lane by lane: callers fill x with four scalar stores, and a
	// single 32-byte load could not be forwarded from them, stalling until
	// they commit. Four 8-byte loads each forward from their store.
	MOVQ        x+0(FP), DI
	VMOVSD      0(DI), X0
	VMOVHPD     8(DI), X0, X0
	VMOVSD      16(DI), X1
	VMOVHPD     24(DI), X1, X1
	VINSERTF128 $1, X1, Y0, Y0

	// Decline unless every lane has |x| < 700 (LT_OQ: NaN compares false,
	// ±Inf fails the bound).
	VANDPD    expAbsMask<>(SB), Y0, Y1
	VCMPPD    $0x11, expLimit<>(SB), Y1, Y1
	VMOVMSKPD Y1, AX
	CMPL      AX, $15
	JNE       decline

	// k = round(x·LOG2E) as int32 (MULSD, CVTSD2SL) and back (CVTSL2SD).
	VMULPD    expLog2e<>(SB), Y0, Y1
	VCVTPD2DQY Y1, X2
	VCVTDQ2PD X2, Y1

	// x −= k·LN2U; x −= k·LN2L (VFNMADD231SD), then x ×= 1/16.
	VFNMADD231PD expLn2u<>(SB), Y1, Y0
	VFNMADD231PD expLn2l<>(SB), Y1, Y0
	VMULPD       expSixteenth<>(SB), Y0, Y0

	// Taylor polynomial by Horner (VFMADD213SD): p = ((…(c8·x + c7)·x …
	// + 0.5)·x + 1.
	VMOVUPD      expC8<>(SB), Y3
	VFMADD213PD  expC7<>(SB), Y0, Y3
	VFMADD213PD  expC6<>(SB), Y0, Y3
	VFMADD213PD  expC5<>(SB), Y0, Y3
	VFMADD213PD  expC4<>(SB), Y0, Y3
	VFMADD213PD  expC3<>(SB), Y0, Y3
	VFMADD213PD  expHalf<>(SB), Y0, Y3
	VFMADD213PD  expOne<>(SB), Y0, Y3
	VMULPD       Y3, Y0, Y0

	// Undo the 1/16 scaling: y ← y·(y+2) three times, the fourth fused
	// with the final +1.
	VADDPD       expTwo<>(SB), Y0, Y3
	VMULPD       Y3, Y0, Y0
	VADDPD       expTwo<>(SB), Y0, Y3
	VMULPD       Y3, Y0, Y0
	VADDPD       expTwo<>(SB), Y0, Y3
	VMULPD       Y3, Y0, Y0
	VADDPD       expTwo<>(SB), Y0, Y3
	VFMADD213PD  expOne<>(SB), Y3, Y0

	// Scale by 2^k: (k + 1023) << 52 reinterpreted as float64. |x| < 700
	// keeps k + 1023 within [13, 2033], a normal exponent.
	VPADDD    expBias<>(SB), X2, X2
	VPMOVZXDQ X2, Y2
	VPSLLQ    $52, Y2, Y2
	VMULPD    Y2, Y0, Y0

	VMOVUPD Y0, (DI)
	VZEROUPPER
	MOVB    $1, ret+8(FP)
	RET

decline:
	VZEROUPPER
	MOVB $0, ret+8(FP)
	RET

// func cpuHasAVX2FMA() bool
TEXT ·cpuHasAVX2FMA(SB), NOSPLIT, $0-1
	// Leaf 7 must exist.
	XORL  AX, AX
	XORL  CX, CX
	CPUID
	CMPL  AX, $7
	JL    no
	// Leaf 1 ECX: FMA (bit 12), OSXSAVE (bit 27), AVX (bit 28).
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18001000, CX
	CMPL  CX, $0x18001000
	JNE   no
	// Leaf 7 EBX: AVX2 (bit 5).
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x20, BX
	JE    no
	// XCR0 must have the xmm and ymm state enabled by the OS.
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   no
	MOVB  $1, ret+0(FP)
	RET

no:
	MOVB  $0, ret+0(FP)
	RET

// func cpuHasAVX512() bool
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	// Leaf 7 must exist.
	XORL  AX, AX
	XORL  CX, CX
	CPUID
	CMPL  AX, $7
	JL    no512
	// Leaf 7 EBX: AVX512F (bit 16), AVX512DQ (bit 17).
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x30000, BX
	CMPL  BX, $0x30000
	JNE   no512
	// Leaf 1 ECX: OSXSAVE (bit 27), before XGETBV may run.
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x08000000, CX
	JE    no512
	// XCR0 must have the xmm, ymm, opmask, upper-zmm and high-zmm state
	// (bits 1, 2, 5, 6 and 7) enabled by the OS.
	XORL   CX, CX
	XGETBV
	ANDL   $0xE6, AX
	CMPL   AX, $0xE6
	JNE    no512
	MOVB   $1, ret+0(FP)
	RET

no512:
	MOVB $0, ret+0(FP)
	RET
