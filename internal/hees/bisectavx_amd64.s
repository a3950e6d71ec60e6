// AVX lockstep bisection kernel. Layout and semantics are fixed by the
// lanes8 struct and the scalar loop in solveParallelBus: every arithmetic
// instruction below evaluates the same IEEE-754 operation sequence as the
// scalar code (multiplying by 0.5 is exact, hence identical to the /2),
// so each lane's bracket sequence is reproduced bit for bit. Converged
// lanes are masked out of the bracket blends, which freezes their lo/hi
// exactly where the scalar loop's break would leave them.

#include "textflag.h"

DATA bisectHalf<>+0(SB)/8, $0x3fe0000000000000  // 0.5
DATA bisectHalf<>+8(SB)/8, $0x3fe0000000000000
DATA bisectHalf<>+16(SB)/8, $0x3fe0000000000000
DATA bisectHalf<>+24(SB)/8, $0x3fe0000000000000
GLOBL bisectHalf<>(SB), RODATA|NOPTR, $32

DATA bisectTol<>+0(SB)/8, $0x3ddb7cdfd9d7bdbb  // 1e-10
DATA bisectTol<>+8(SB)/8, $0x3ddb7cdfd9d7bdbb
DATA bisectTol<>+16(SB)/8, $0x3ddb7cdfd9d7bdbb
DATA bisectTol<>+24(SB)/8, $0x3ddb7cdfd9d7bdbb
GLOBL bisectTol<>(SB), RODATA|NOPTR, $32

// lanes8 field offsets (each field is [8]float64 = 64 bytes; the second
// ymm group of each field sits at +32).
#define VB 0
#define RB 64
#define VC 128
#define RC 192
#define PP 256
#define LO 320
#define HI 384

// func bisect8AVX(l *lanes8)
//
// Register plan: group A holds lo/hi/active in Y8/Y9/Y10, group B in
// Y11/Y12/Y13; Y0-Y3 and Y4-Y7 are the groups' temporaries. The
// loop-invariant inputs stay in memory and are re-loaded each iteration —
// the loads are off the divide-limited critical path.
TEXT ·bisect8AVX(SB), NOSPLIT, $0-8
	MOVQ    l+0(FP), DI
	VMOVUPD LO(DI), Y8
	VMOVUPD LO+32(DI), Y11
	VMOVUPD HI(DI), Y9
	VMOVUPD HI+32(DI), Y12
	// active masks start all-ones (predicate 0x0F = TRUE_UQ).
	VCMPPD  $0x0f, Y8, Y8, Y10
	VCMPPD  $0x0f, Y8, Y8, Y13
	MOVL    $200, CX

loop:
	// Group A: mid = (lo+hi)*0.5
	VADDPD    Y9, Y8, Y0
	VMULPD    bisectHalf<>(SB), Y0, Y0
	// gap = (vb-mid)/rb + (vc-mid)/rc - p/mid, scalar association
	VMOVUPD   VB(DI), Y1
	VSUBPD    Y0, Y1, Y1
	VDIVPD    RB(DI), Y1, Y1
	VMOVUPD   VC(DI), Y2
	VSUBPD    Y0, Y2, Y2
	VDIVPD    RC(DI), Y2, Y2
	VMOVUPD   PP(DI), Y3
	VDIVPD    Y0, Y3, Y3
	VADDPD    Y2, Y1, Y1
	VSUBPD    Y3, Y1, Y1
	// gap > 0 (GT_OQ: quiet, NaN false, like the scalar compare)
	VXORPD    Y2, Y2, Y2
	VCMPPD    $0x1e, Y2, Y1, Y1
	// lo takes mid where active && gap>0; hi where active && !(gap>0)
	VANDPD    Y10, Y1, Y2
	VANDNPD   Y10, Y1, Y3
	VBLENDVPD Y2, Y0, Y8, Y8
	VBLENDVPD Y3, Y0, Y9, Y9
	// converged lanes (hi-lo < 1e-10*hi, LT_OQ) leave the active mask
	VSUBPD    Y8, Y9, Y1
	VMULPD    bisectTol<>(SB), Y9, Y2
	VCMPPD    $0x11, Y2, Y1, Y1
	VANDNPD   Y10, Y1, Y10

	// Group B, identically
	VADDPD    Y12, Y11, Y4
	VMULPD    bisectHalf<>(SB), Y4, Y4
	VMOVUPD   VB+32(DI), Y5
	VSUBPD    Y4, Y5, Y5
	VDIVPD    RB+32(DI), Y5, Y5
	VMOVUPD   VC+32(DI), Y6
	VSUBPD    Y4, Y6, Y6
	VDIVPD    RC+32(DI), Y6, Y6
	VMOVUPD   PP+32(DI), Y7
	VDIVPD    Y4, Y7, Y7
	VADDPD    Y6, Y5, Y5
	VSUBPD    Y7, Y5, Y5
	VXORPD    Y6, Y6, Y6
	VCMPPD    $0x1e, Y6, Y5, Y5
	VANDPD    Y13, Y5, Y6
	VANDNPD   Y13, Y5, Y7
	VBLENDVPD Y6, Y4, Y11, Y11
	VBLENDVPD Y7, Y4, Y12, Y12
	VSUBPD    Y11, Y12, Y5
	VMULPD    bisectTol<>(SB), Y12, Y6
	VCMPPD    $0x11, Y6, Y5, Y5
	VANDNPD   Y13, Y5, Y13

	// Loop while any lane is active, up to the scalar 200-iteration cap.
	VORPD     Y13, Y10, Y0
	VMOVMSKPD Y0, AX
	TESTL     AX, AX
	JE        done
	DECL      CX
	JNE       loop

done:
	VMOVUPD Y8, LO(DI)
	VMOVUPD Y11, LO+32(DI)
	VMOVUPD Y9, HI(DI)
	VMOVUPD Y12, HI+32(DI)
	VZEROUPPER
	RET
