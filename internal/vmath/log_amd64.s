// Four-lane natural logarithm, bit-identical to math.Log on amd64.
//
// math.Log on amd64 is math.archLog (src/math/log_amd64.s). It uses no FMA,
// so it is the same code on every amd64 CPU. The kernel below is that
// routine with each scalar SD instruction replaced by its packed PD form
// over four lanes, in the same order and with the same constants, so every
// lane performs the same IEEE-754 operation sequence and rounds the same
// way. The exponent k is built from the bits as the scalar routine builds
// it (shift right by 52, subtract 0x3FE, convert the int32 to float64),
// and the √2/2 fold repeats its CMPSD predicate 5 (not-less-than) with
// √2/2 as the first operand, so a lane folds when f1 ≤ √2/2. The scalar
// routine's special cases (zero, negative, infinite or NaN input) and the
// subnormals it never normalises are not reproduced: the kernel declines
// any call with a lane outside [MinNormal, MaxFloat64] and the Go side
// falls back to math.Log for all four lanes.

#include "textflag.h"

#define HSqrt2 7.07106781186547524401e-01 // sqrt(2)/2
#define Ln2Hi  6.93147180369123816490e-01 // 0x3fe62e42fee00000
#define Ln2Lo  1.90821492927058770002e-10 // 0x3dea39ef35793c76
#define L1     6.666666666666735130e-01   // 0x3FE5555555555593
#define L2     3.999999999940941908e-01   // 0x3FD999999997FA04
#define L3     2.857142874366239149e-01   // 0x3FD2492494229359
#define L4     2.222219843214978396e-01   // 0x3FCC71C51D8E78AF
#define L5     1.818357216161805012e-01   // 0x3FC7466496CB03DE
#define L6     1.531383769920937332e-01   // 0x3FC39A09D078C69F
#define L7     1.479819860511658591e-01   // 0x3FC2F112DF3E5244

// BCAST4 lays down four copies of one 8-byte value as a 32-byte ymm
// constant.
#define BCAST4(name, val) \
	DATA name<>+0(SB)/8, $val; \
	DATA name<>+8(SB)/8, $val; \
	DATA name<>+16(SB)/8, $val; \
	DATA name<>+24(SB)/8, $val; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

BCAST4(logHSqrt2, HSqrt2)
BCAST4(logLn2Hi, Ln2Hi)
BCAST4(logLn2Lo, Ln2Lo)
BCAST4(logL1, L1)
BCAST4(logL2, L2)
BCAST4(logL3, L3)
BCAST4(logL4, L4)
BCAST4(logL5, L5)
BCAST4(logL6, L6)
BCAST4(logL7, L7)
BCAST4(logHalf, 0.5)
BCAST4(logOne, 1.0)
BCAST4(logTwo, 2.0)
BCAST4(logMinNormal, 0x0010000000000000)
BCAST4(logMaxFloat, 0x7FEFFFFFFFFFFFFF)
BCAST4(logMantMask, 0x000FFFFFFFFFFFFF)
BCAST4(logBias, 0x3FE)

// The even dwords of a ymm register: the low halves of its four qwords.
DATA logEvenDwords<>+0(SB)/4, $0
DATA logEvenDwords<>+4(SB)/4, $2
DATA logEvenDwords<>+8(SB)/4, $4
DATA logEvenDwords<>+12(SB)/4, $6
DATA logEvenDwords<>+16(SB)/4, $0
DATA logEvenDwords<>+20(SB)/4, $0
DATA logEvenDwords<>+24(SB)/4, $0
DATA logEvenDwords<>+28(SB)/4, $0
GLOBL logEvenDwords<>(SB), RODATA|NOPTR, $32

// func log4AVX(x *[4]float64) bool
TEXT ·log4AVX(SB), NOSPLIT, $0-9
	// Load lane by lane, as exp4AVX does, so each load forwards from the
	// caller's scalar store.
	MOVQ        x+0(FP), DI
	VMOVSD      0(DI), X0
	VMOVHPD     8(DI), X0, X0
	VMOVSD      16(DI), X1
	VMOVHPD     24(DI), X1, X1
	VINSERTF128 $1, X1, Y0, Y0

	// Decline unless every lane is a positive normal finite number:
	// MinNormal ≤ x (GE_OQ) and x ≤ MaxFloat64 (LE_OQ). NaN fails both.
	VCMPPD    $0x1d, logMinNormal<>(SB), Y0, Y1
	VCMPPD    $0x12, logMaxFloat<>(SB), Y0, Y2
	VANDPD    Y2, Y1, Y1
	VMOVMSKPD Y1, AX
	CMPL      AX, $15
	JNE       decline

	// f1 = mantissa | 0.5 (ANDPD, ORPD); k = (bits >> 52) − 0x3FE as int32
	// (SHRQ, SUBL; the sign bit is clear, so the ANDL $0x7FF is a no-op)
	// converted to float64 (CVTSL2SD).
	VANDPD     logMantMask<>(SB), Y0, Y2
	VORPD      logHalf<>(SB), Y2, Y2
	VPSRLQ     $52, Y0, Y1
	VPSUBQ     logBias<>(SB), Y1, Y1
	VMOVDQU    logEvenDwords<>(SB), Y3
	VPERMD     Y1, Y3, Y1
	VCVTDQ2PD  X1, Y1

	// if f1 ≤ √2/2 { k -= 1; f1 *= 2 }: mask = NLT(√2/2, f1) (CMPSD
	// predicate 5), then k −= mask&1 and f1 ×= 1 + mask&1.
	VMOVUPD logHSqrt2<>(SB), Y0
	VCMPPD  $5, Y2, Y0, Y0
	VANDPD  logOne<>(SB), Y0, Y3
	VSUBPD  Y3, Y1, Y1
	VADDPD  logOne<>(SB), Y3, Y3
	VMULPD  Y3, Y2, Y2

	// f = f1 − 1; s = f / (2 + f); s2 = s·s; s4 = s2·s2.
	VSUBPD logOne<>(SB), Y2, Y2
	VADDPD logTwo<>(SB), Y2, Y0
	VDIVPD Y0, Y2, Y3
	VMULPD Y3, Y3, Y4
	VMULPD Y4, Y4, Y5

	// t1 = s2·(L1 + s4·(L3 + s4·(L5 + s4·L7))).
	VMULPD logL7<>(SB), Y5, Y6
	VADDPD logL5<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL3<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL1<>(SB), Y6, Y6
	VMULPD Y6, Y4, Y4

	// t2 = s4·(L2 + s4·(L4 + s4·L6)); R = t1 + t2.
	VMULPD logL6<>(SB), Y5, Y6
	VADDPD logL4<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL2<>(SB), Y6, Y6
	VMULPD Y6, Y5, Y5
	VADDPD Y5, Y4, Y4

	// hfsq = 0.5·f·f.
	VMULPD logHalf<>(SB), Y2, Y0
	VMULPD Y2, Y0, Y0

	// k·Ln2Hi − ((hfsq − (s·(hfsq + R) + k·Ln2Lo)) − f).
	VADDPD Y0, Y4, Y4
	VMULPD Y4, Y3, Y3
	VMULPD logLn2Lo<>(SB), Y1, Y4
	VADDPD Y4, Y3, Y3
	VSUBPD Y3, Y0, Y0
	VSUBPD Y2, Y0, Y0
	VMULPD logLn2Hi<>(SB), Y1, Y1
	VSUBPD Y0, Y1, Y1

	VMOVUPD Y1, (DI)
	VZEROUPPER
	MOVB    $1, ret+8(FP)
	RET

decline:
	VZEROUPPER
	MOVB $0, ret+8(FP)
	RET
