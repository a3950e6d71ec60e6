// Code generated by TestSweepKernel8Generated from sweep_amd64.s; DO NOT EDIT.

// Eight-lane state sweep (sweepGroup8), bit-identical to the portable
// stages of stepStages (gradient.go) and to two sweepGroup calls.
//
// Every macro is the macro of the same name in sweep_amd64.s widened by
// the rules of sweep8_gen_test.go: one rollout lane per element of a zmm
// register, Y registers become Z registers and X registers their Y
// halves; constants are 64-byte broadcasts; compares write K1 and
// VPMOVM2Q turns it back into a lane mask; VBLENDVPD and VMOVMSKPD read
// a lane mask through VPMOVQ2M; a tape field is stored as its low four
// lanes to the row of lg.tape[0] (R8) and its high four, extracted with
// VEXTRACTF64X4, to that of lg.tape[1] (R9), a flag byte the same way
// as two nibbles, and read back joined with VINSERTF64X4 (through Z13
// where an instruction takes it as an operand); the logarithm's exponent
// is truncated with VPMOVQD. ROW, ZLOAD and GATHER, which address the
// two rows and gather the lanes' windows, are written for eight lanes in
// the generator.

#include "go_asm.h"
#include "textflag.h"

#define BCAST8(name, val) \
	DATA name<>+0(SB)/8, $val; \
	DATA name<>+8(SB)/8, $val; \
	DATA name<>+16(SB)/8, $val; \
	DATA name<>+24(SB)/8, $val; \
	DATA name<>+32(SB)/8, $val; \
	DATA name<>+40(SB)/8, $val; \
	DATA name<>+48(SB)/8, $val; \
	DATA name<>+56(SB)/8, $val; \
	GLOBL name<>(SB), RODATA|NOPTR, $64

BCAST8(sweepOne, 1.0)
BCAST8(sweepTwo, 2.0)
BCAST8(sweepFour, 4.0)
BCAST8(sweepSag, 0.97)
BCAST8(sweepPmax, 0.98)
BCAST8(sweepSoEFloor, 1.0e-6)
BCAST8(sweep1e3, 1.0e3)
BCAST8(sweep1e6, 1.0e6)

#define LOG2E 1.4426950408889634073599246810018920
#define LN2U 0.69314718055966295651160180568695068359375
#define LN2L 0.28235290563031577122588448175013436025525412068e-12

BCAST8(expLog2e, LOG2E)
BCAST8(expLn2u, LN2U)
BCAST8(expLn2l, LN2L)
BCAST8(expSixteenth, 0.0625)
BCAST8(expLimit, 700.0)
BCAST8(expHalf, 0.5)
BCAST8(expC3, 1.6666666666666666667e-1)
BCAST8(expC4, 4.1666666666666666667e-2)
BCAST8(expC5, 8.3333333333333333333e-3)
BCAST8(expC6, 1.3888888888888888889e-3)
BCAST8(expC7, 1.9841269841269841270e-4)
BCAST8(expC8, 2.4801587301587301587e-5)

DATA expAbsMask<>+0(SB)/8, $0x7fffffffffffffff
DATA expAbsMask<>+8(SB)/8, $0x7fffffffffffffff
DATA expAbsMask<>+16(SB)/8, $0x7fffffffffffffff
DATA expAbsMask<>+24(SB)/8, $0x7fffffffffffffff
DATA expAbsMask<>+32(SB)/8, $0x7fffffffffffffff
DATA expAbsMask<>+40(SB)/8, $0x7fffffffffffffff
DATA expAbsMask<>+48(SB)/8, $0x7fffffffffffffff
DATA expAbsMask<>+56(SB)/8, $0x7fffffffffffffff
GLOBL expAbsMask<>(SB), RODATA|NOPTR, $64

DATA expBias<>+0(SB)/4, $0x3ff
DATA expBias<>+4(SB)/4, $0x3ff
DATA expBias<>+8(SB)/4, $0x3ff
DATA expBias<>+12(SB)/4, $0x3ff
DATA expBias<>+16(SB)/4, $0x3ff
DATA expBias<>+20(SB)/4, $0x3ff
DATA expBias<>+24(SB)/4, $0x3ff
DATA expBias<>+28(SB)/4, $0x3ff
GLOBL expBias<>(SB), RODATA|NOPTR, $32

BCAST8(logHSqrt2, 7.07106781186547524401e-01)
BCAST8(logLn2Hi, 6.93147180369123816490e-01)
BCAST8(logLn2Lo, 1.90821492927058770002e-10)
BCAST8(logL1, 6.666666666666735130e-01)
BCAST8(logL2, 3.999999999940941908e-01)
BCAST8(logL3, 2.857142874366239149e-01)
BCAST8(logL4, 2.222219843214978396e-01)
BCAST8(logL5, 1.818357216161805012e-01)
BCAST8(logL6, 1.531383769920937332e-01)
BCAST8(logL7, 1.479819860511658591e-01)
BCAST8(logMinNormal, 0x0010000000000000)
BCAST8(logMaxFloat, 0x7FEFFFFFFFFFFFFF)
BCAST8(logMantMask, 0x000FFFFFFFFFFFFF)
BCAST8(logBias, 0x3FE)

BCAST8(agingEps, 1.0e-9)
BCAST8(agingGas, 8.314462618)
BCAST8(agingPowLo, 0x0030000000000000)
BCAST8(agingPowHi, 0x7FB0000000000000)

DATA sweepSign<>+0(SB)/8, $0x8000000000000000
DATA sweepSign<>+8(SB)/8, $0x8000000000000000
DATA sweepSign<>+16(SB)/8, $0x8000000000000000
DATA sweepSign<>+24(SB)/8, $0x8000000000000000
DATA sweepSign<>+32(SB)/8, $0x8000000000000000
DATA sweepSign<>+40(SB)/8, $0x8000000000000000
DATA sweepSign<>+48(SB)/8, $0x8000000000000000
DATA sweepSign<>+56(SB)/8, $0x8000000000000000
GLOBL sweepSign<>(SB), RODATA|NOPTR, $64

#define LT $0x11
#define LE $0x12
#define GE $0x1d
#define GT $0x1e

#define ROW \
	MOVQ          BX, AX; \
	IMULQ         $tapeRow__size, AX; \
	MOVQ          laneGroup_tape+0(DI), R8; \
	MOVQ          laneGroup_tape+8(DI), R9; \
	ADDQ          AX, R8; \
	ADDQ          AX, R9

#define FLAG(M, off) \
	VPMOVQ2M      M, K1; \
	KMOVB         K1, AX; \
	MOVB          AX, off(R8); \
	ANDB          $15, off(R8); \
	SHRL          $4, AX; \
	MOVB          AX, off(R9)

#define NFLAG(M, off) \
	VPMOVQ2M      M, K1; \
	KMOVB         K1, AX; \
	XORL          $255, AX; \
	MOVB          AX, off(R8); \
	ANDB          $15, off(R8); \
	SHRL          $4, AX; \
	MOVB          AX, off(R9)

#define CLAMP01(X, ONE, ZERO, T) \
	VCMPPD        GT, ONE, X, K1; \
	VPMOVM2Q      K1, T; \
	VBLENDMPD     ONE, X, K1, X; \
	VCMPPD        LT, ZERO, X, K1; \
	VPMOVM2Q      K1, T; \
	VBLENDMPD     ZERO, X, K1, X

#define ETA(B, V, nom, droop, peak, min, E, L, T, U) \
	VDIVPD        nom(B), V, T; \
	VMOVUPD       sweepOne<>(SB), E; \
	VSUBPD        T, E, T; \
	VXORPD        E, E, E; \
	VCMPPD        LT, E, T, K1; \
	VPMOVM2Q      K1, L; \
	VBLENDMPD     E, T, K1, T; \
	VMOVUPD       droop(B), U; \
	VMULPD        T, U, T; \
	VMOVUPD       peak(B), E; \
	VSUBPD        T, E, T; \
	VCMPPD        LE, min(B), T, K1; \
	VPMOVM2Q      K1, L; \
	VCMPPD        GE, E, T, K1; \
	VPMOVM2Q      K1, U; \
	VBLENDMPD     E, T, K1, E; \
	VPMOVQ2M      L, K1; \
	VBLENDMPD     min(B), E, K1, E; \
	VORPD         U, L, L

#define EXP(X, K, KI, XK, P) \
	VMULPD        expLog2e<>(SB), X, K; \
	VCVTPD2DQ     K, XK; \
	VCVTDQ2PD     XK, K; \
	VFNMADD231PD  expLn2u<>(SB), K, X; \
	VFNMADD231PD  expLn2l<>(SB), K, X; \
	VMULPD        expSixteenth<>(SB), X, X; \
	VMOVUPD       expC8<>(SB), P; \
	VFMADD213PD   expC7<>(SB), X, P; \
	VFMADD213PD   expC6<>(SB), X, P; \
	VFMADD213PD   expC5<>(SB), X, P; \
	VFMADD213PD   expC4<>(SB), X, P; \
	VFMADD213PD   expC3<>(SB), X, P; \
	VFMADD213PD   expHalf<>(SB), X, P; \
	VFMADD213PD   sweepOne<>(SB), X, P; \
	VMULPD        P, X, X; \
	VADDPD        sweepTwo<>(SB), X, P; \
	VMULPD        P, X, X; \
	VADDPD        sweepTwo<>(SB), X, P; \
	VMULPD        P, X, X; \
	VADDPD        sweepTwo<>(SB), X, P; \
	VMULPD        P, X, X; \
	VADDPD        sweepTwo<>(SB), X, P; \
	VFMADD213PD   sweepOne<>(SB), P, X; \
	VPADDD        expBias<>(SB), XK, XK; \
	VPMOVZXDQ     XK, KI; \
	VPSLLQ        $52, KI, KI; \
	VMULPD        KI, X, X

#define LOG(X, A, XA, B, C, D, E, F) \
	VANDPD        logMantMask<>(SB), X, B; \
	VORPD         expHalf<>(SB), B, B; \
	VPSRLQ        $52, X, A; \
	VPSUBQ        logBias<>(SB), A, A; \
	VPMOVQD       A, XA; \
	VCVTDQ2PD     XA, A; \
	VMOVUPD       logHSqrt2<>(SB), X; \
	VCMPPD        $5, B, X, K1; \
	VPMOVM2Q      K1, X; \
	VANDPD        sweepOne<>(SB), X, C; \
	VSUBPD        C, A, A; \
	VADDPD        sweepOne<>(SB), C, C; \
	VMULPD        C, B, B; \
	VSUBPD        sweepOne<>(SB), B, B; \
	VADDPD        sweepTwo<>(SB), B, X; \
	VDIVPD        X, B, C; \
	VMULPD        C, C, D; \
	VMULPD        D, D, E; \
	VMULPD        logL7<>(SB), E, F; \
	VADDPD        logL5<>(SB), F, F; \
	VMULPD        E, F, F; \
	VADDPD        logL3<>(SB), F, F; \
	VMULPD        E, F, F; \
	VADDPD        logL1<>(SB), F, F; \
	VMULPD        F, D, D; \
	VMULPD        logL6<>(SB), E, F; \
	VADDPD        logL4<>(SB), F, F; \
	VMULPD        E, F, F; \
	VADDPD        logL2<>(SB), F, F; \
	VMULPD        F, E, E; \
	VADDPD        E, D, D; \
	VMULPD        expHalf<>(SB), B, X; \
	VMULPD        B, X, X; \
	VADDPD        X, D, D; \
	VMULPD        D, C, C; \
	VMULPD        logLn2Lo<>(SB), A, D; \
	VADDPD        D, C, C; \
	VSUBPD        C, X, X; \
	VSUBPD        B, X, X; \
	VMULPD        logLn2Hi<>(SB), A, A; \
	VSUBPD        X, A, A

#define INRANGE(X, M, T) \
	VANDPD        expAbsMask<>(SB), X, T; \
	VCMPPD        LT, expLimit<>(SB), T, K1; \
	VPMOVM2Q      K1, T; \
	VANDPD        T, M, M

#define EXPARGS \
	VMOVUPD       laneGroup_soc(DI), Z0; \
	VMOVUPD       Y0, tapeRow_soc0(R8); \
	VEXTRACTF64X4 $1, Z0, tapeRow_soc0(R9); \
	VMOVUPD       laneGroup_tb(DI), Z1; \
	VMOVUPD       Y1, tapeRow_tb0(R8); \
	VEXTRACTF64X4 $1, Z1, tapeRow_tb0(R9); \
	VMOVUPD       sweepOne<>(SB), Z5; \
	VXORPD        Z6, Z6, Z6; \
	CLAMP01(Z0, Z5, Z6, Z4); \
	VMULPD        laneGroup_v1(DI), Z0, Z2; \
	VMULPD        laneGroup_r1(DI), Z0, Z3; \
	VDIVPD        Z1, Z5, Z4; \
	VSUBPD        laneGroup_invRef(DI), Z4, Z4; \
	VMOVUPD       laneGroup_kr(DI), Z0; \
	VMULPD        Z4, Z0, Z4; \
	VCMPPD        LE, Z6, Z1, K1; \
	VPMOVM2Q      K1, Z0; \
	VORPD         laneGroup_krOff(DI), Z0, Z0; \
	VPMOVQ2M      Z0, K1; \
	VBLENDMPD     Z6, Z4, K1, Z4; \
	VCMPPD        $0x0f, Z5, Z5, K1; \
	VPMOVM2Q      K1, Z0; \
	INRANGE(Z2, Z0, Z1); \
	INRANGE(Z3, Z0, Z1); \
	INRANGE(Z4, Z0, Z1)

#define EXPS \
	EXP(Z2, Z0, Z1, Y1, Z5); \
	VMOVUPD       Y2, tapeRow_ocvExp(R8); \
	VEXTRACTF64X4 $1, Z2, tapeRow_ocvExp(R9); \
	EXP(Z3, Z0, Z1, Y1, Z5); \
	VMOVUPD       Y3, tapeRow_resZExp(R8); \
	VEXTRACTF64X4 $1, Z3, tapeRow_resZExp(R9); \
	EXP(Z4, Z0, Z1, Y1, Z5); \
	VMOVUPD       Y4, tapeRow_resTExp(R8); \
	VEXTRACTF64X4 $1, Z4, tapeRow_resTExp(R9)

#define GATHER(off, Y, X, XT) \
	MOVQ          off+0(DI), CX; \
	VMOVSD        (CX)(BX*8), X13; \
	MOVQ          off+8(DI), CX; \
	VMOVHPD       (CX)(BX*8), X13, X13; \
	MOVQ          off+16(DI), CX; \
	VMOVSD        (CX)(BX*8), X14; \
	MOVQ          off+24(DI), CX; \
	VMOVHPD       (CX)(BX*8), X14, X14; \
	VINSERTF128   $1, X14, Y13, X; \
	MOVQ          off+32(DI), CX; \
	VMOVSD        (CX)(BX*8), X13; \
	MOVQ          off+40(DI), CX; \
	VMOVHPD       (CX)(BX*8), X13, X13; \
	MOVQ          off+48(DI), CX; \
	VMOVSD        (CX)(BX*8), X14; \
	MOVQ          off+56(DI), CX; \
	VMOVHPD       (CX)(BX*8), X14, X14; \
	VINSERTF128   $1, X14, Y13, Y13; \
	VINSERTF64X4  $1, Y13, Y, Y

#define ZLOAD \
	MOVQ          laneGroup_base(DI), AX; \
	MOVQ          laneGroup_z+0(DI), CX; \
	VMOVUPD       (CX)(AX*8), X0; \
	MOVQ          laneGroup_z+16(DI), CX; \
	VINSERTF128   $1, (CX)(AX*8), Y0, Y0; \
	MOVQ          laneGroup_z+32(DI), CX; \
	VINSERTF64X2  $2, (CX)(AX*8), Z0, Z0; \
	MOVQ          laneGroup_z+48(DI), CX; \
	VINSERTF64X2  $3, (CX)(AX*8), Z0, Z0; \
	MOVQ          laneGroup_z+8(DI), CX; \
	VMOVUPD       (CX)(AX*8), X1; \
	MOVQ          laneGroup_z+24(DI), CX; \
	VINSERTF128   $1, (CX)(AX*8), Y1, Y1; \
	MOVQ          laneGroup_z+40(DI), CX; \
	VINSERTF64X2  $2, (CX)(AX*8), Z1, Z1; \
	MOVQ          laneGroup_z+56(DI), CX; \
	VINSERTF64X2  $3, (CX)(AX*8), Z1, Z1; \
	VUNPCKHPD     Z1, Z0, Z2; \
	VUNPCKLPD     Z1, Z0, Z0

#define CAP1 \
	ZLOAD;        \
	VMOVUPD       laneGroup_soe(DI), Z1; \
	VMOVUPD       Y1, tapeRow_soe0(R8); \
	VEXTRACTF64X4 $1, Z1, tapeRow_soe0(R9); \
	VMULPD        laneGroup_coolP(DI), Z2, Z3; \
	VMOVUPD       Y3, tapeRow_pcool(R8); \
	VEXTRACTF64X4 $1, Z3, tapeRow_pcool(R9); \
	VXORPD        sweepSign<>(SB), Z2, Z2; \
	VMULPD        laneGroup_coolEff(DI), Z2, Z2; \
	VMULPD        laneGroup_coolerMax(DI), Z2, Z2; \
	VMOVUPD       Y2, tapeRow_qx(R8); \
	VEXTRACTF64X4 $1, Z2, tapeRow_qx(R9); \
	VSQRTPD       Z1, Z2; \
	VMOVUPD       laneGroup_capBusV(DI), Z3; \
	VMULPD        Z2, Z3, Z2; \
	VCMPPD        GT, sweepSoEFloor<>(SB), Z1, K1; \
	VPMOVM2Q      K1, Z3; \
	VMOVUPD       laneGroup_vcapFloor(DI), Z4; \
	VPMOVQ2M      Z3, K1; \
	VBLENDMPD     Z2, Z4, K1, Z2; \
	VMOVUPD       Y2, tapeRow_vcap(R8); \
	VEXTRACTF64X4 $1, Z2, tapeRow_vcap(R9); \
	NFLAG(Z3, tapeRow_vcapClamped)

#define CAP2 \
	VMULPD        sweepSag<>(SB), Z2, Z3; \
	VMULPD        Z2, Z3, Z3; \
	VDIVPD        laneGroup_capESR4(DI), Z3, Z3; \
	VMOVUPD       laneGroup_capC7(DI), Z4; \
	VCMPPD        LT, Z4, Z3, K1; \
	VPMOVM2Q      K1, Z5; \
	VANDPD        laneGroup_escOn(DI), Z5, Z5; \
	VPMOVQ2M      Z5, K1; \
	VBLENDMPD     Z3, Z4, K1, Z3; \
	VMOVUPD       Y3, tapeRow_capMax(R8); \
	VEXTRACTF64X4 $1, Z3, tapeRow_capMax(R9); \
	FLAG(Z5, tapeRow_sagBranch); \
	ETA(DI, Z2, laneGroup_ccNom, laneGroup_ccDroop, laneGroup_ccPeak, laneGroup_ccMin, Z4, Z5, Z6, Z1); \
	VMOVUPD       Y4, tapeRow_etaCapBus(R8); \
	VEXTRACTF64X4 $1, Z4, tapeRow_etaCapBus(R9); \
	NFLAG(Z5, tapeRow_etaCapBusP); \
	VSUBPD        laneGroup_ccIdle(DI), Z3, Z3; \
	VMULPD        Z4, Z3, Z3; \
	VMOVUPD       laneGroup_capPowerScale(DI), Z5; \
	VMULPD        Z5, Z0, Z0; \
	VCMPPD        GT, Z3, Z0, K1; \
	VPMOVM2Q      K1, Z5; \
	VBLENDMPD     Z3, Z0, K1, Z0; \
	VMOVUPD       Y0, tapeRow_capBus(R8); \
	VEXTRACTF64X4 $1, Z0, tapeRow_capBus(R9); \
	FLAG(Z5, tapeRow_capClamped); \
	VDIVPD        Z4, Z0, Z3; \
	VMULPD        Z4, Z0, Z5; \
	VXORPD        Z6, Z6, Z6; \
	VCMPPD        GE, Z6, Z0, K1; \
	VPMOVM2Q      K1, Z1; \
	VBLENDMPD     Z3, Z5, K1, Z3; \
	VADDPD        laneGroup_ccIdle(DI), Z3, Z3

#define CAP3 \
	VMULPD        Z2, Z2, Z4; \
	VMOVUPD       laneGroup_capESR4(DI), Z5; \
	VMULPD        Z3, Z5, Z5; \
	VSUBPD        Z5, Z4, Z4; \
	VCMPPD        LT, Z6, Z4, K1; \
	VPMOVM2Q      K1, Z5; \
	VBLENDMPD     Z6, Z4, K1, Z4; \
	VSQRTPD       Z4, Z4; \
	VMOVUPD       laneGroup_escOn(DI), Z1; \
	VANDPD        Z1, Z5, Z5; \
	FLAG(Z5, tapeRow_capDiscZero); \
	VSUBPD        Z4, Z2, Z5; \
	VDIVPD        laneGroup_capESR2(DI), Z5, Z5; \
	VANDPD        Z1, Z4, Z4; \
	VMOVUPD       Y4, tapeRow_sCap(R8); \
	VEXTRACTF64X4 $1, Z4, tapeRow_sCap(R9); \
	VDIVPD        Z2, Z3, Z4; \
	VCMPPD        GT, Z6, Z2, K1; \
	VPMOVM2Q      K1, Z0; \
	VANDPD        Z0, Z4, Z4; \
	VPMOVQ2M      Z1, K1; \
	VBLENDMPD     Z5, Z4, K1, Z4; \
	VMOVUPD       Y4, tapeRow_capI(R8); \
	VEXTRACTF64X4 $1, Z4, tapeRow_capI(R9)

#define CAP4 \
	VMULPD        Z4, Z4, Z5; \
	VMULPD        laneGroup_capESR(DI), Z5, Z5; \
	VADDPD        Z5, Z3, Z5; \
	VMULPD        laneGroup_dt(DI), Z5, Z5; \
	VMOVUPD       Y5, tapeRow_dEcap(R8); \
	VEXTRACTF64X4 $1, Z5, tapeRow_dEcap(R9); \
	VDIVPD        laneGroup_capEnergy(DI), Z5, Z5; \
	VMOVUPD       laneGroup_soe(DI), Z1; \
	VSUBPD        Z5, Z1, Z1; \
	VMOVUPD       Y1, tapeRow_soePre(R8); \
	VEXTRACTF64X4 $1, Z1, tapeRow_soePre(R9); \
	VMOVUPD       sweepOne<>(SB), Z5; \
	VCMPPD        GT, Z5, Z1, K1; \
	VPMOVM2Q      K1, Z0; \
	VBLENDMPD     Z5, Z1, K1, Z1; \
	VMOVUPD       Z1, laneGroup_soe(DI); \
	FLAG(Z0, tapeRow_soeClampHi)

#define BAT1 \
	GATHER(laneGroup_fc, Z0, Y0, Y1); \
	VMOVUPD       tapeRow_pcool(R8), Y13; \
	VINSERTF64X4  $1, tapeRow_pcool(R9), Z13, Z13; \
	VADDPD        Z13, Z0, Z0; \
	VMOVUPD       tapeRow_capBus(R8), Y13; \
	VINSERTF64X4  $1, tapeRow_capBus(R9), Z13, Z13; \
	VSUBPD        Z13, Z0, Z0; \
	VMOVUPD       Y0, tapeRow_battBus(R8); \
	VEXTRACTF64X4 $1, Z0, tapeRow_battBus(R9); \
	VMOVUPD       tapeRow_ocvExp(R8), Y1; \
	VINSERTF64X4  $1, tapeRow_ocvExp(R9), Z1, Z1; \
	VMOVUPD       tapeRow_resZExp(R8), Y2; \
	VINSERTF64X4  $1, tapeRow_resZExp(R9), Z2, Z2; \
	VMOVUPD       tapeRow_resTExp(R8), Y3; \
	VINSERTF64X4  $1, tapeRow_resTExp(R9), Z3, Z3; \
	VMOVUPD       laneGroup_r0(DI), Z4; \
	VMULPD        Z2, Z4, Z2; \
	VADDPD        laneGroup_r2(DI), Z2, Z2; \
	VMULPD        Z3, Z2, Z2; \
	VMOVUPD       Y2, tapeRow_cellR(R8); \
	VEXTRACTF64X4 $1, Z2, tapeRow_cellR(R9); \
	VMOVUPD       laneGroup_resScale(DI), Z3; \
	VMULPD        Z2, Z3, Z3; \
	VMOVUPD       Y3, tapeRow_res(R8); \
	VEXTRACTF64X4 $1, Z3, tapeRow_res(R9); \
	VMOVUPD       sweepOne<>(SB), Z5; \
	VXORPD        Z6, Z6, Z6; \
	VMOVUPD       laneGroup_soc(DI), Z4; \
	CLAMP01(Z4, Z5, Z6, Z2); \
	VMULPD        Z4, Z4, Z2; \
	VMOVUPD       laneGroup_v0(DI), Z5; \
	VMULPD        Z1, Z5, Z1; \
	VMOVUPD       laneGroup_v2(DI), Z5; \
	VMULPD        Z2, Z5, Z5; \
	VMULPD        Z2, Z5, Z5; \
	VADDPD        Z5, Z1, Z1; \
	VMOVUPD       laneGroup_v3(DI), Z5; \
	VMULPD        Z2, Z5, Z5; \
	VMULPD        Z4, Z5, Z5; \
	VADDPD        Z5, Z1, Z1; \
	VMOVUPD       laneGroup_v4(DI), Z5; \
	VMULPD        Z2, Z5, Z5; \
	VADDPD        Z5, Z1, Z1; \
	VMOVUPD       laneGroup_v5(DI), Z5; \
	VMULPD        Z4, Z5, Z5; \
	VADDPD        Z5, Z1, Z1; \
	VADDPD        laneGroup_v6(DI), Z1, Z1; \
	VMOVUPD       laneGroup_ocvScale(DI), Z5; \
	VMULPD        Z1, Z5, Z1; \
	VMOVUPD       Y1, tapeRow_voc(R8); \
	VEXTRACTF64X4 $1, Z1, tapeRow_voc(R9)

#define BAT2 \
	ETA(DI, Z1, laneGroup_bcNom, laneGroup_bcDroop, laneGroup_bcPeak, laneGroup_bcMin, Z4, Z2, Z5, Z6); \
	VMOVUPD       Y4, tapeRow_etaBatt(R8); \
	VEXTRACTF64X4 $1, Z4, tapeRow_etaBatt(R9); \
	NFLAG(Z2, tapeRow_etaBattP); \
	VDIVPD        Z4, Z0, Z2; \
	VMULPD        Z4, Z0, Z5; \
	VXORPD        Z6, Z6, Z6; \
	VCMPPD        GE, Z6, Z0, K1; \
	VPMOVM2Q      K1, Z4; \
	VBLENDMPD     Z2, Z5, K1, Z2; \
	VADDPD        laneGroup_bcIdle(DI), Z2, Z2; \
	VMOVUPD       Y2, tapeRow_bsPre(R8); \
	VEXTRACTF64X4 $1, Z2, tapeRow_bsPre(R9); \
	VMULPD        Z1, Z1, Z0; \
	VMOVUPD       sweepFour<>(SB), Z5; \
	VMULPD        Z3, Z5, Z5; \
	VDIVPD        Z5, Z0, Z4; \
	VMULPD        sweepPmax<>(SB), Z4, Z4; \
	VMOVUPD       Y4, tapeRow_pmax(R8); \
	VEXTRACTF64X4 $1, Z4, tapeRow_pmax(R9)

#define BAT3 \
	VCMPPD        GT, Z4, Z2, K1; \
	VPMOVM2Q      K1, Z6; \
	VBLENDMPD     Z4, Z2, K1, Z2; \
	VMOVUPD       Y2, tapeRow_battStorage(R8); \
	VEXTRACTF64X4 $1, Z2, tapeRow_battStorage(R9); \
	FLAG(Z6, tapeRow_bsClamped); \
	VMULPD        Z2, Z5, Z5; \
	VSUBPD        Z5, Z0, Z0; \
	VXORPD        Z6, Z6, Z6; \
	VCMPPD        LT, Z6, Z0, K1; \
	VPMOVM2Q      K1, Z4; \
	VBLENDMPD     Z6, Z0, K1, Z0; \
	FLAG(Z4, tapeRow_battDiscZero); \
	VSQRTPD       Z0, Z0; \
	VMOVUPD       Y0, tapeRow_sBatt(R8); \
	VEXTRACTF64X4 $1, Z0, tapeRow_sBatt(R9); \
	VSUBPD        Z0, Z1, Z0; \
	VMOVUPD       sweepTwo<>(SB), Z5; \
	VMULPD        Z3, Z5, Z5; \
	VDIVPD        Z5, Z0, Z0; \
	VMOVUPD       Y0, tapeRow_i(R8); \
	VEXTRACTF64X4 $1, Z0, tapeRow_i(R9)

#define BAT4 \
	VSUBPD        laneGroup_packMaxI(DI), Z0, Z1; \
	VCMPPD        GT, Z6, Z1, K1; \
	VPMOVM2Q      K1, Z2; \
	VANDPD        Z2, Z1, Z1; \
	VMOVUPD       Y1, tapeRow_overC6(R8); \
	VEXTRACTF64X4 $1, Z1, tapeRow_overC6(R9); \
	VDIVPD        laneGroup_parallel(DI), Z0, Z7; \
	VMOVUPD       Y7, tapeRow_cellI(R8); \
	VEXTRACTF64X4 $1, Z7, tapeRow_cellI(R9); \
	VMULPD        Z7, Z7, Z2; \
	VMOVUPD       tapeRow_cellR(R8), Y13; \
	VINSERTF64X4  $1, tapeRow_cellR(R9), Z13, Z13; \
	VMULPD        Z13, Z2, Z2; \
	VMOVUPD       laneGroup_tb(DI), Z8; \
	VMULPD        Z8, Z7, Z4; \
	VMULPD        laneGroup_dVocDT(DI), Z4, Z4; \
	VADDPD        Z4, Z2, Z2; \
	VMULPD        laneGroup_cells(DI), Z2, Z2; \
	VMULPD        laneGroup_dt(DI), Z0, Z4; \
	VDIVPD        laneGroup_packCapC(DI), Z4, Z4; \
	VMOVUPD       laneGroup_soc(DI), Z5; \
	VSUBPD        Z4, Z5, Z5; \
	VMOVUPD       Y5, tapeRow_socPre(R8); \
	VEXTRACTF64X4 $1, Z5, tapeRow_socPre(R9); \
	VMOVUPD       sweepOne<>(SB), Z4; \
	VCMPPD        GT, Z4, Z5, K1; \
	VPMOVM2Q      K1, Z1; \
	VBLENDMPD     Z4, Z5, K1, Z5; \
	VMOVUPD       Z5, laneGroup_soc(DI); \
	FLAG(Z1, tapeRow_socClampHi)

#define BAT5 \
	VMOVUPD       laneGroup_tc(DI), Z4; \
	VMOVUPD       laneGroup_r0tb(DI), Z0; \
	VMULPD        Z8, Z0, Z0; \
	VMOVUPD       laneGroup_r0tc(DI), Z1; \
	VMULPD        Z4, Z1, Z1; \
	VADDPD        Z1, Z0, Z0; \
	VADDPD        Z2, Z0, Z0; \
	VMOVUPD       laneGroup_r1tb(DI), Z1; \
	VMULPD        Z8, Z1, Z1; \
	VMOVUPD       laneGroup_r1tc(DI), Z5; \
	VMULPD        Z4, Z5, Z5; \
	VADDPD        Z5, Z1, Z1; \
	VADDPD        laneGroup_wAmb(DI), Z1, Z1; \
	VMOVUPD       tapeRow_qx(R8), Y13; \
	VINSERTF64X4  $1, tapeRow_qx(R9), Z13, Z13; \
	VADDPD        Z13, Z1, Z1; \
	VMOVUPD       laneGroup_i00(DI), Z2; \
	VMULPD        Z0, Z2, Z2; \
	VMOVUPD       laneGroup_i01(DI), Z3; \
	VMULPD        Z1, Z3, Z3; \
	VADDPD        Z3, Z2, Z2; \
	VMOVUPD       laneGroup_i10(DI), Z3; \
	VMULPD        Z0, Z3, Z3; \
	VMOVUPD       laneGroup_i11(DI), Z4; \
	VMULPD        Z1, Z4, Z4; \
	VADDPD        Z4, Z3, Z3; \
	VMOVUPD       Z2, laneGroup_tb(DI); \
	VMOVUPD       Z3, laneGroup_tc(DI); \
	VMOVUPD       Y2, tapeRow_tb1(R8); \
	VEXTRACTF64X4 $1, Z2, tapeRow_tb1(R9); \
	VMOVUPD       Y3, tapeRow_tc1(R8); \
	VEXTRACTF64X4 $1, Z3, tapeRow_tc1(R9)

#define AGING \
	VANDPD        expAbsMask<>(SB), Z7, Z7; \
	VXORPD        Z6, Z6, Z6; \
	VCMPPD        GT, Z6, Z8, K1; \
	VPMOVM2Q      K1, Z9; \
	VCMPPD        LE, agingEps<>(SB), Z7, K1; \
	VPMOVM2Q      K1, Z10; \
	VANDNPD       Z9, Z10, Z9; \
	VCMPPD        GE, logMinNormal<>(SB), Z7, K1; \
	VPMOVM2Q      K1, Z10; \
	VCMPPD        LE, logMaxFloat<>(SB), Z7, K1; \
	VPMOVM2Q      K1, Z11; \
	VANDPD        Z11, Z10, Z10; \
	VANDPD        laneGroup_powDirect(DI), Z10, Z10; \
	VMOVUPD       sweepOne<>(SB), Z0; \
	VPMOVQ2M      Z10, K1; \
	VBLENDMPD     Z7, Z0, K1, Z0; \
	LOG(Z0, Z1, Y1, Z2, Z3, Z4, Z5, Z6); \
	VMULPD        laneGroup_powYf(DI), Z1, Z1; \
	VANDPD        Z10, Z1, Z1; \
	VMULPD        agingGas<>(SB), Z8, Z2; \
	VMOVUPD       laneGroup_agNegL1(DI), Z3; \
	VDIVPD        Z2, Z3, Z3; \
	VANDPD        expAbsMask<>(SB), Z3, Z4; \
	VCMPPD        LT, expLimit<>(SB), Z4, K1; \
	VPMOVM2Q      K1, Z4; \
	VANDPD        Z4, Z3, Z3; \
	EXP(Z1, Z0, Z2, Y2, Z5); \
	EXP(Z3, Z0, Z2, Y2, Z5); \
	VMULPD        Z7, Z1, Z1; \
	VCMPPD        GE, agingPowLo<>(SB), Z1, K1; \
	VPMOVM2Q      K1, Z5; \
	VCMPPD        LE, agingPowHi<>(SB), Z1, K1; \
	VPMOVM2Q      K1, Z6; \
	VANDPD        Z6, Z5, Z5; \
	VANDPD        Z10, Z5, Z5; \
	VANDPD        Z4, Z5, Z5; \
	VANDNPD       Z9, Z5, Z5; \
	VPMOVQ2M      Z5, K1; \
	KMOVB         K1, AX; \
	ORQ           AX, laneGroup_agingMiss(DI); \
	VMULPD        laneGroup_agL0(DI), Z3, Z3; \
	VMULPD        Z1, Z3, Z3; \
	VANDPD        Z9, Z3, Z3; \
	VMULPD        laneGroup_dt(DI), Z3, Z3; \
	VMOVUPD       Y3, tapeRow_aging(R8); \
	VEXTRACTF64X4 $1, Z3, tapeRow_aging(R9)

#define PENALTY(W, D, T, M) \
	VCMPPD        GT, Z6, D, K1; \
	VPMOVM2Q      K1, M; \
	VMULPD        W, D, T; \
	VMULPD        D, T, T; \
	VANDPD        M, T, T; \
	VADDPD        T, Z12, Z12

#define COST \
	VXORPD        Z6, Z6, Z6; \
	VMOVUPD       tapeRow_soePre(R8), Y0; \
	VINSERTF64X4  $1, tapeRow_soePre(R9), Z0, Z0; \
	VMOVUPD       laneGroup_capMinSoE(DI), Z1; \
	VSUBPD        Z0, Z1, Z1; \
	PENALTY(laneGroup_stateWeight(DI), Z1, Z4, Z2); \
	VSUBPD        sweepOne<>(SB), Z0, Z1; \
	PENALTY(laneGroup_stateWeight(DI), Z1, Z4, Z2); \
	VMOVUPD       tapeRow_bsPre(R8), Y0; \
	VINSERTF64X4  $1, tapeRow_bsPre(R9), Z0, Z0; \
	VMOVUPD       tapeRow_pmax(R8), Y1; \
	VINSERTF64X4  $1, tapeRow_pmax(R9), Z1, Z1; \
	VCMPPD        GT, Z1, Z0, K1; \
	VPMOVM2Q      K1, Z2; \
	VSUBPD        Z1, Z0, Z0; \
	VDIVPD        sweep1e3<>(SB), Z0, Z0; \
	VMULPD        sweep1e6<>(SB), Z0, Z1; \
	VMULPD        Z0, Z1, Z1; \
	VANDPD        Z2, Z1, Z1; \
	VADDPD        Z1, Z12, Z12; \
	VMOVUPD       tapeRow_overC6(R8), Y0; \
	VINSERTF64X4  $1, tapeRow_overC6(R9), Z0, Z0; \
	VMULPD        sweep1e3<>(SB), Z0, Z1; \
	VMULPD        Z0, Z1, Z1; \
	VADDPD        Z1, Z12, Z12; \
	VMOVUPD       tapeRow_socPre(R8), Y0; \
	VINSERTF64X4  $1, tapeRow_socPre(R9), Z0, Z0; \
	VMOVUPD       laneGroup_battMinSoC(DI), Z1; \
	VSUBPD        Z0, Z1, Z1; \
	PENALTY(laneGroup_stateWeight(DI), Z1, Z4, Z2); \
	VMOVUPD       sweepOne<>(SB), Z5; \
	VSUBPD        Z5, Z0, Z1; \
	PENALTY(laneGroup_stateWeight(DI), Z1, Z4, Z2); \
	VPMOVQ2M      Z2, K1; \
	VBLENDMPD     Z5, Z0, K1, Z7; \
	VMOVUPD       tapeRow_tb1(R8), Y8; \
	VINSERTF64X4  $1, tapeRow_tb1(R9), Z8, Z8; \
	VSUBPD        laneGroup_safeTemp(DI), Z8, Z1; \
	PENALTY(laneGroup_safeTempWeight(DI), Z1, Z4, Z2); \
	VMULPD        laneGroup_battHeatCap(DI), Z8, Z1; \
	VMOVUPD       tapeRow_tc1(R8), Y2; \
	VINSERTF64X4  $1, tapeRow_tc1(R9), Z2, Z2; \
	VMULPD        laneGroup_coolHeatCap(DI), Z2, Z2; \
	VADDPD        Z2, Z1, Z1; \
	VDIVPD        laneGroup_heatCapSum(DI), Z1, Z1; \
	VSUBPD        laneGroup_targetTemp(DI), Z1, Z1; \
	PENALTY(laneGroup_pressureWeight(DI), Z1, Z4, Z2)

#define TRACK \
	GATHER(laneGroup_refSoC, Z0, Y0, Y1); \
	VSUBPD        Z0, Z7, Z0; \
	VMULPD        laneGroup_socRefWeight(DI), Z0, Z1; \
	VMULPD        Z0, Z1, Z1; \
	VANDPD        laneGroup_trackSoC(DI), Z1, Z1; \
	VADDPD        Z1, Z12, Z12; \
	GATHER(laneGroup_refTb, Z0, Y0, Y1); \
	VSUBPD        Z0, Z8, Z0; \
	VMULPD        laneGroup_tbRefWeight(DI), Z0, Z1; \
	VMULPD        Z0, Z1, Z1; \
	VANDPD        laneGroup_trackTb(DI), Z1, Z1; \
	VADDPD        Z1, Z12, Z12

#define STEPCOST \
	VMOVUPD       laneGroup_w1(DI), Z0; \
	VMOVUPD       tapeRow_pcool(R8), Y13; \
	VINSERTF64X4  $1, tapeRow_pcool(R9), Z13, Z13; \
	VMULPD        Z13, Z0, Z0; \
	VMULPD        laneGroup_dt(DI), Z0, Z0; \
	VMOVUPD       laneGroup_w2(DI), Z1; \
	VMOVUPD       tapeRow_aging(R8), Y13; \
	VINSERTF64X4  $1, tapeRow_aging(R9), Z13, Z13; \
	VMULPD        Z13, Z1, Z1; \
	VADDPD        Z1, Z0, Z0; \
	VMOVUPD       tapeRow_voc(R8), Y1; \
	VINSERTF64X4  $1, tapeRow_voc(R9), Z1, Z1; \
	VMOVUPD       tapeRow_i(R8), Y13; \
	VINSERTF64X4  $1, tapeRow_i(R9), Z13, Z13; \
	VMULPD        Z13, Z1, Z1; \
	VMULPD        laneGroup_dt(DI), Z1, Z1; \
	VMOVUPD       tapeRow_dEcap(R8), Y13; \
	VINSERTF64X4  $1, tapeRow_dEcap(R9), Z13, Z13; \
	VADDPD        Z13, Z1, Z1; \
	VMULPD        laneGroup_w3(DI), Z1, Z1; \
	VADDPD        Z1, Z0, Z0; \
	VADDPD        Z0, Z12, Z12

TEXT ·sweepGroup8(SB), NOSPLIT, $0-24
	MOVQ          lg+0(FP), DI
	MOVQ          k+8(FP), BX
	VMOVUPD       laneGroup_cost(DI), Z12
	CMPQ          laneGroup_resume(DI), $0
	JEQ           step

	MOVQ          $0, laneGroup_resume(DI)
	ROW
	JMP           stages

step:
	CMPQ          BX, laneGroup_horizon(DI)
	JGE           done

	CMPQ          BX, laneGroup_nextBlockAt(DI)
	JNE           row
	MOVQ          laneGroup_base(DI), AX
	CMPQ          AX, laneGroup_lastBase(DI)
	JGE           row
	ADDQ          laneGroup_mIn(DI), AX
	MOVQ          AX, laneGroup_base(DI)
	MOVQ          laneGroup_bs(DI), AX
	ADDQ          AX, laneGroup_nextBlockAt(DI)

row:
	ROW
	EXPARGS
	VPMOVQ2M      Z0, K1
	KMOVB         K1, AX
	CMPL          AX, $255
	JNE           handback
	EXPS

stages:
	CAP1
	CAP2
	CAP3
	CAP4
	BAT1
	BAT2
	BAT3
	BAT4
	BAT5
	AGING
	COST
	CMPQ          laneGroup_track(DI), $0
	JEQ           untracked
	TRACK

untracked:
	STEPCOST
	INCQ          BX
	JMP           step

handback:

	VMOVUPD       Z2, laneGroup_e+0(DI)
	VMOVUPD       Z3, laneGroup_e+64(DI)
	VMOVUPD       Z4, laneGroup_e+128(DI)

done:
	VMOVUPD       Z12, laneGroup_cost(DI)
	MOVQ          BX, ret+16(FP)
	VZEROUPPER
	RET
