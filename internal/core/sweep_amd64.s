// Four-lane state sweep, bit-identical to the portable stages of
// stepStages (gradient.go).
//
// Each lane of a ymm register is one rollout lane, and every packed
// instruction below is the scalar operation the portable stage performs on
// that lane, on the same operands in the same association: no FMA outside
// the exponential (the Go compiler emits none on amd64), no reciprocal in
// place of a division, and products such as 4·capESR formed once per call
// in Go exactly as every step forms them. Branches become blends. Each
// VCMPPD predicate is the ordered, quiet form of the Go comparison (false
// on NaN), so a NaN lane takes the branch the Go code takes; !(x > 0) is
// the complement of GT_OQ. Clamps use compares and blends, never
// VMAXPD/VMINPD, whose NaN rule is asymmetric.
//
// The exponentials are vmath's exp4AVX (internal/vmath/exp_amd64.s), which
// is math.Exp's FMA path widened op for op, inlined with its constants
// written the same way; like it, the loop hands a step back to Go when a
// lane's argument is not finite or has |x| ≥ 700. The aging stage's
// logarithm is vmath's log4AVX (internal/vmath/log_amd64.s), math.Log
// widened op for op, inlined the same way; it only ever sees positive
// normal bases.
//
// One call runs the whole horizon for one group of four lanes: the group
// at DI, the step's tape row at R8, Y0–Y11 and the running cost in Y12,
// with the step in BX. The capacitor stages (1–4) do not read the
// battery's state, so step k+1's capacitor chain overlaps step k's battery
// chain in the out-of-order window. The tape is group-major: a row holds
// each field of the four lanes as one [4]float64 at the tapeRow_* offsets
// of go_asm.h, stored with one VMOVUPD, and each flag as a 4-bit lane
// mask, stored as one byte from VMOVMSKPD.

#include "go_asm.h"
#include "textflag.h"

// BCAST4 lays down four copies of one float64 as a 32-byte ymm constant.
#define BCAST4(name, val) \
	DATA name<>+0(SB)/8, $val; \
	DATA name<>+8(SB)/8, $val; \
	DATA name<>+16(SB)/8, $val; \
	DATA name<>+24(SB)/8, $val; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

BCAST4(sweepOne, 1.0)
BCAST4(sweepTwo, 2.0)
BCAST4(sweepFour, 4.0)
BCAST4(sweepSag, 0.97)
BCAST4(sweepPmax, 0.98)
BCAST4(sweepSoEFloor, 1.0e-6)
BCAST4(sweep1e3, 1.0e3)
BCAST4(sweep1e6, 1.0e6)

// vmath's exp4AVX constants.
#define LOG2E 1.4426950408889634073599246810018920
#define LN2U 0.69314718055966295651160180568695068359375
#define LN2L 0.28235290563031577122588448175013436025525412068e-12

BCAST4(expLog2e, LOG2E)
BCAST4(expLn2u, LN2U)
BCAST4(expLn2l, LN2L)
BCAST4(expSixteenth, 0.0625)
BCAST4(expLimit, 700.0)
BCAST4(expHalf, 0.5)
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

// vmath's log4AVX constants.
BCAST4(logHSqrt2, 7.07106781186547524401e-01)
BCAST4(logLn2Hi, 6.93147180369123816490e-01)
BCAST4(logLn2Lo, 1.90821492927058770002e-10)
BCAST4(logL1, 6.666666666666735130e-01)
BCAST4(logL2, 3.999999999940941908e-01)
BCAST4(logL3, 2.857142874366239149e-01)
BCAST4(logL4, 2.222219843214978396e-01)
BCAST4(logL5, 1.818357216161805012e-01)
BCAST4(logL6, 1.531383769920937332e-01)
BCAST4(logL7, 1.479819860511658591e-01)
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

// Eq. 5's constants: floats.Eps, up to which battery.Ages sees no
// current; the gas constant R̄ (units.GasConstant); and the bounds 2⁻¹⁰²⁰
// and 2¹⁰²⁰ within which battery.Pow keeps its direct product (as bits).
BCAST4(agingEps, 1.0e-9)
BCAST4(agingGas, 8.314462618)
BCAST4(agingPowLo, 0x0030000000000000)
BCAST4(agingPowHi, 0x7FB0000000000000)

DATA sweepSign<>+0(SB)/8, $0x8000000000000000
DATA sweepSign<>+8(SB)/8, $0x8000000000000000
DATA sweepSign<>+16(SB)/8, $0x8000000000000000
DATA sweepSign<>+24(SB)/8, $0x8000000000000000
GLOBL sweepSign<>(SB), RODATA|NOPTR, $32

// Predicates of VCMPPD: dst = src1 OP src2, written VCMPPD $p, src2, src1, dst.
#define LT $0x11
#define LE $0x12
#define GE $0x1d
#define GT $0x1e

// ROW points R8 at the tape row of step BX of the group at DI.
#define ROW \
	MOVQ  BX, AX; \
	IMULQ $tapeRow__size, AX; \
	MOVQ  laneGroup_tape(DI), R8; \
	ADDQ  AX, R8

// FLAG stores the lanes of mask M as the lane-mask flag at off of the
// row; NFLAG stores their complement.
#define FLAG(M, off) \
	VMOVMSKPD M, AX; \
	MOVB      AX, off(R8)

#define NFLAG(M, off) \
	VMOVMSKPD M, AX; \
	XORL      $15, AX; \
	MOVB      AX, off(R8)

// CLAMP01 clamps X to [0, 1] as units.Clamp does (NaN passes through),
// given ONE and ZERO; T is scratch.
#define CLAMP01(X, ONE, ZERO, T) \
	VCMPPD    GT, ONE, X, T; \
	VBLENDVPD T, ONE, X, X; \
	VCMPPD    LT, ZERO, X, T; \
	VBLENDVPD T, ZERO, X, X

// ETA sets E to etaAt(peak, min, nom, droop, V), with the converter's
// fields read from block B, and L to the lanes where it clamped (eta ≤ min
// or eta ≥ peak; the derivative flag is its complement). T and U are
// scratch.
#define ETA(B, V, nom, droop, peak, min, E, L, T, U) \
	VDIVPD    nom(B), V, T; \
	VMOVUPD   sweepOne<>(SB), E; \
	VSUBPD    T, E, T; \
	VXORPD    E, E, E; \
	VCMPPD    LT, E, T, L; \
	VBLENDVPD L, E, T, T; \
	VMOVUPD   droop(B), U; \
	VMULPD    T, U, T; \
	VMOVUPD   peak(B), E; \
	VSUBPD    T, E, T; \
	VCMPPD    LE, min(B), T, L; \
	VCMPPD    GE, E, T, U; \
	VBLENDVPD U, E, T, E; \
	VBLENDVPD L, min(B), E, E; \
	VORPD     U, L, L

// EXP overwrites X with the exponentials of its four lanes, each within
// |x| < 700: exp4AVX's sequence, with K and P scratch and XK the low half
// of the scratch KI.
#define EXP(X, K, KI, XK, P) \
	VMULPD       expLog2e<>(SB), X, K; \
	VCVTPD2DQY   K, XK; \
	VCVTDQ2PD    XK, K; \
	VFNMADD231PD expLn2u<>(SB), K, X; \
	VFNMADD231PD expLn2l<>(SB), K, X; \
	VMULPD       expSixteenth<>(SB), X, X; \
	VMOVUPD      expC8<>(SB), P; \
	VFMADD213PD  expC7<>(SB), X, P; \
	VFMADD213PD  expC6<>(SB), X, P; \
	VFMADD213PD  expC5<>(SB), X, P; \
	VFMADD213PD  expC4<>(SB), X, P; \
	VFMADD213PD  expC3<>(SB), X, P; \
	VFMADD213PD  expHalf<>(SB), X, P; \
	VFMADD213PD  sweepOne<>(SB), X, P; \
	VMULPD       P, X, X; \
	VADDPD       sweepTwo<>(SB), X, P; \
	VMULPD       P, X, X; \
	VADDPD       sweepTwo<>(SB), X, P; \
	VMULPD       P, X, X; \
	VADDPD       sweepTwo<>(SB), X, P; \
	VMULPD       P, X, X; \
	VADDPD       sweepTwo<>(SB), X, P; \
	VFMADD213PD  sweepOne<>(SB), P, X; \
	VPADDD       expBias<>(SB), XK, XK; \
	VPMOVZXDQ    XK, KI; \
	VPSLLQ       $52, KI, KI; \
	VMULPD       KI, X, X

// LOG leaves in A (XA its low half) the natural logarithms of the four
// lanes of X, each a positive normal finite number: log4AVX's sequence
// after its range check, with X and B–F scratch. Like math.Log on amd64
// it uses no FMA.
#define LOG(X, A, XA, B, C, D, E, F) \
	VANDPD    logMantMask<>(SB), X, B; \
	VORPD     expHalf<>(SB), B, B; \
	VPSRLQ    $52, X, A; \
	VPSUBQ    logBias<>(SB), A, A; \
	VMOVDQU   logEvenDwords<>(SB), C; \
	VPERMD    A, C, A; \
	VCVTDQ2PD XA, A; \
	VMOVUPD   logHSqrt2<>(SB), X; \
	VCMPPD    $5, B, X, X; \
	VANDPD    sweepOne<>(SB), X, C; \
	VSUBPD    C, A, A; \
	VADDPD    sweepOne<>(SB), C, C; \
	VMULPD    C, B, B; \
	VSUBPD    sweepOne<>(SB), B, B; \
	VADDPD    sweepTwo<>(SB), B, X; \
	VDIVPD    X, B, C; \
	VMULPD    C, C, D; \
	VMULPD    D, D, E; \
	VMULPD    logL7<>(SB), E, F; \
	VADDPD    logL5<>(SB), F, F; \
	VMULPD    E, F, F; \
	VADDPD    logL3<>(SB), F, F; \
	VMULPD    E, F, F; \
	VADDPD    logL1<>(SB), F, F; \
	VMULPD    F, D, D; \
	VMULPD    logL6<>(SB), E, F; \
	VADDPD    logL4<>(SB), F, F; \
	VMULPD    E, F, F; \
	VADDPD    logL2<>(SB), F, F; \
	VMULPD    F, E, E; \
	VADDPD    E, D, D; \
	VMULPD    expHalf<>(SB), B, X; \
	VMULPD    B, X, X; \
	VADDPD    X, D, D; \
	VMULPD    D, C, C; \
	VMULPD    logLn2Lo<>(SB), A, D; \
	VADDPD    D, C, C; \
	VSUBPD    C, X, X; \
	VSUBPD    B, X, X; \
	VMULPD    logLn2Hi<>(SB), A, A; \
	VSUBPD    X, A, A

// INRANGE ands into M the lanes of X with |x| < 700 (LT_OQ: NaN and ±Inf
// fail); T is scratch.
#define INRANGE(X, M, T) \
	VANDPD expAbsMask<>(SB), X, T; \
	VCMPPD LT, expLimit<>(SB), T, T; \
	VANDPD T, M, M

// The stages of one step for the four lanes of the group at DI, whose row
// of the step R8 points at, with Y0–Y11 the ymm registers they use. A
// stage hands the next one values in the registers noted under each and
// everything else through the row or the group.

// EXPARGS: the tape head, and the arguments of Eq. 2's and Eq. 3's
// exponentials, V[1]·z, R[1]·z and Kr·(1/T − 1/Tref) (0 without a
// temperature correction or at T ≤ 0) at z = clamp(soc, 0, 1). Leaves them
// in Y2, Y3, Y4 and the lanes all three of whose arguments the vector exp
// takes in Y0.
#define EXPARGS \
	VMOVUPD   laneGroup_soc(DI), Y0; \
	VMOVUPD   Y0, tapeRow_soc0(R8); \
	VMOVUPD   laneGroup_tb(DI), Y1; \
	VMOVUPD   Y1, tapeRow_tb0(R8); \
	VMOVUPD   sweepOne<>(SB), Y5; \
	VXORPD    Y6, Y6, Y6; \
	CLAMP01(Y0, Y5, Y6, Y4); \
	VMULPD    laneGroup_v1(DI), Y0, Y2; \
	VMULPD    laneGroup_r1(DI), Y0, Y3; \
	VDIVPD    Y1, Y5, Y4; \
	VSUBPD    laneGroup_invRef(DI), Y4, Y4; \
	VMOVUPD   laneGroup_kr(DI), Y0; \
	VMULPD    Y4, Y0, Y4; \
	VCMPPD    LE, Y6, Y1, Y0; \
	VORPD     laneGroup_krOff(DI), Y0, Y0; \
	VBLENDVPD Y0, Y6, Y4, Y4; \
	VCMPPD    $0x0f, Y5, Y5, Y0; \
	INRANGE(Y2, Y0, Y1); \
	INRANGE(Y3, Y0, Y1); \
	INRANGE(Y4, Y0, Y1)

// EXPS: the exponentials of the arguments EXPARGS left in Y2, Y3 and Y4,
// stored to the row's ocvExp, resZExp and resTExp.
#define EXPS \
	EXP(Y2, Y0, Y1, X1, Y5); \
	VMOVUPD   Y2, tapeRow_ocvExp(R8); \
	EXP(Y3, Y0, Y1, X1, Y5); \
	VMOVUPD   Y3, tapeRow_resZExp(R8); \
	EXP(Y4, Y0, Y1, X1, Y5); \
	VMOVUPD   Y4, tapeRow_resTExp(R8)

// GATHER loads element BX of the four lanes' arrays at field off of the
// group into Y (low half X), with XT scratch.
#define GATHER(off, Y, X, XT) \
	MOVQ        off+0(DI), CX; \
	VMOVSD      (CX)(BX*8), X; \
	MOVQ        off+8(DI), CX; \
	VMOVHPD     (CX)(BX*8), X, X; \
	MOVQ        off+16(DI), CX; \
	VMOVSD      (CX)(BX*8), XT; \
	MOVQ        off+24(DI), CX; \
	VMOVHPD     (CX)(BX*8), XT, XT; \
	VINSERTF128 $1, XT, Y, Y

// ZLOAD loads each lane's blocked inputs (capU, coolU) = z[base:base+2],
// base being lg's blocked-input cursor, as capU in Y0 and coolU in Y2,
// with Y1 scratch.
#define ZLOAD \
	MOVQ        laneGroup_base(DI), AX; \
	MOVQ        laneGroup_z+0(DI), CX; \
	VMOVUPD     (CX)(AX*8), X0; \
	MOVQ        laneGroup_z+16(DI), CX; \
	VINSERTF128 $1, (CX)(AX*8), Y0, Y0; \
	MOVQ        laneGroup_z+8(DI), CX; \
	VMOVUPD     (CX)(AX*8), X1; \
	MOVQ        laneGroup_z+24(DI), CX; \
	VINSERTF128 $1, (CX)(AX*8), Y1, Y1; \
	VUNPCKHPD   Y1, Y0, Y2; \
	VUNPCKLPD   Y1, Y0, Y0

// CAP1 (stage 1): each lane's (capU, coolU) from ZLOAD, pcool =
// coolU·(coolerMax + pump), qx = −coolU·coolEff·coolerMax, and vcap =
// capBusV·sqrt(soe) where soe > 1e-6, else capBusV·sqrt(1e-6). Hands on
// capU in Y0 and vcap in Y2.
#define CAP1 \
	ZLOAD; \
	VMOVUPD     laneGroup_soe(DI), Y1; \
	VMOVUPD     Y1, tapeRow_soe0(R8); \
	VMULPD      laneGroup_coolP(DI), Y2, Y3; \
	VMOVUPD     Y3, tapeRow_pcool(R8); \
	VXORPD      sweepSign<>(SB), Y2, Y2; \
	VMULPD      laneGroup_coolEff(DI), Y2, Y2; \
	VMULPD      laneGroup_coolerMax(DI), Y2, Y2; \
	VMOVUPD     Y2, tapeRow_qx(R8); \
	VSQRTPD     Y1, Y2; \
	VMOVUPD     laneGroup_capBusV(DI), Y3; \
	VMULPD      Y2, Y3, Y2; \
	VCMPPD      GT, sweepSoEFloor<>(SB), Y1, Y3; \
	VMOVUPD     laneGroup_vcapFloor(DI), Y4; \
	VBLENDVPD   Y3, Y2, Y4, Y2; \
	VMOVUPD     Y2, tapeRow_vcap(R8); \
	NFLAG(Y3, tapeRow_vcapClamped)

// CAP2 (stage 2): the sag limit 0.97·v·v/(4·capESR) where capESR > 0 and
// below capC7; η; capBus = min(capU·scale, (capMax − idle)·η); the
// storage power capBus/η + idle where capBus ≥ 0, else capBus·η + idle.
// Hands on vcap in Y2, the storage power in Y3 and 0 in Y6.
#define CAP2 \
	VMULPD    sweepSag<>(SB), Y2, Y3; \
	VMULPD    Y2, Y3, Y3; \
	VDIVPD    laneGroup_capESR4(DI), Y3, Y3; \
	VMOVUPD   laneGroup_capC7(DI), Y4; \
	VCMPPD    LT, Y4, Y3, Y5; \
	VANDPD    laneGroup_escOn(DI), Y5, Y5; \
	VBLENDVPD Y5, Y3, Y4, Y3; \
	VMOVUPD   Y3, tapeRow_capMax(R8); \
	FLAG(Y5, tapeRow_sagBranch); \
	ETA(DI, Y2, laneGroup_ccNom, laneGroup_ccDroop, laneGroup_ccPeak, laneGroup_ccMin, Y4, Y5, Y6, Y1); \
	VMOVUPD   Y4, tapeRow_etaCapBus(R8); \
	NFLAG(Y5, tapeRow_etaCapBusP); \
	VSUBPD    laneGroup_ccIdle(DI), Y3, Y3; \
	VMULPD    Y4, Y3, Y3; \
	VMOVUPD   laneGroup_capPowerScale(DI), Y5; \
	VMULPD    Y5, Y0, Y0; \
	VCMPPD    GT, Y3, Y0, Y5; \
	VBLENDVPD Y5, Y3, Y0, Y0; \
	VMOVUPD   Y0, tapeRow_capBus(R8); \
	FLAG(Y5, tapeRow_capClamped); \
	VDIVPD    Y4, Y0, Y3; \
	VMULPD    Y4, Y0, Y5; \
	VXORPD    Y6, Y6, Y6; \
	VCMPPD    GE, Y6, Y0, Y1; \
	VBLENDVPD Y1, Y3, Y5, Y3; \
	VADDPD    laneGroup_ccIdle(DI), Y3, Y3

// CAP3 (stage 3): the discriminant v·v − 4·capESR·capStorage clamped at 0,
// its square root and capI = (v − s)/(2·capESR) where capESR > 0; else
// sCap = 0 and capI = capStorage/v where v > 0, or 0. Hands on the
// storage power in Y3 and capI in Y4.
#define CAP3 \
	VMULPD    Y2, Y2, Y4; \
	VMOVUPD   laneGroup_capESR4(DI), Y5; \
	VMULPD    Y3, Y5, Y5; \
	VSUBPD    Y5, Y4, Y4; \
	VCMPPD    LT, Y6, Y4, Y5; \
	VBLENDVPD Y5, Y6, Y4, Y4; \
	VSQRTPD   Y4, Y4; \
	VMOVUPD   laneGroup_escOn(DI), Y1; \
	VANDPD    Y1, Y5, Y5; \
	FLAG(Y5, tapeRow_capDiscZero); \
	VSUBPD    Y4, Y2, Y5; \
	VDIVPD    laneGroup_capESR2(DI), Y5, Y5; \
	VANDPD    Y1, Y4, Y4; \
	VMOVUPD   Y4, tapeRow_sCap(R8); \
	VDIVPD    Y2, Y3, Y4; \
	VCMPPD    GT, Y6, Y2, Y0; \
	VANDPD    Y0, Y4, Y4; \
	VBLENDVPD Y1, Y5, Y4, Y4; \
	VMOVUPD   Y4, tapeRow_capI(R8)

// CAP4 (stage 4): dEcap = (capStorage + capI·capI·capESR)·dt, soePre =
// soe − dEcap/capEnergy, and the SoE clamped at 1 into lg.
#define CAP4 \
	VMULPD    Y4, Y4, Y5; \
	VMULPD    laneGroup_capESR(DI), Y5, Y5; \
	VADDPD    Y5, Y3, Y5; \
	VMULPD    laneGroup_dt(DI), Y5, Y5; \
	VMOVUPD   Y5, tapeRow_dEcap(R8); \
	VDIVPD    laneGroup_capEnergy(DI), Y5, Y5; \
	VMOVUPD   laneGroup_soe(DI), Y1; \
	VSUBPD    Y5, Y1, Y1; \
	VMOVUPD   Y1, tapeRow_soePre(R8); \
	VMOVUPD   sweepOne<>(SB), Y5; \
	VCMPPD    GT, Y5, Y1, Y0; \
	VBLENDVPD Y0, Y5, Y1, Y1; \
	VMOVUPD   Y1, laneGroup_soe(DI); \
	FLAG(Y0, tapeRow_soeClampHi)

// BAT1 (stage 6): battBus = load + pcool − capBus; the exponentials from
// the row; cellR = (R[0]·ez + R[2])·et and res; voc = scale·OCVFromExp(z,
// e), left to right. Hands on battBus in Y0, voc in Y1 and res in Y3.
#define BAT1 \
	GATHER(laneGroup_fc, Y0, X0, X1); \
	VADDPD      tapeRow_pcool(R8), Y0, Y0; \
	VSUBPD      tapeRow_capBus(R8), Y0, Y0; \
	VMOVUPD     Y0, tapeRow_battBus(R8); \
	VMOVUPD     tapeRow_ocvExp(R8), Y1; \
	VMOVUPD     tapeRow_resZExp(R8), Y2; \
	VMOVUPD     tapeRow_resTExp(R8), Y3; \
	VMOVUPD     laneGroup_r0(DI), Y4; \
	VMULPD      Y2, Y4, Y2; \
	VADDPD      laneGroup_r2(DI), Y2, Y2; \
	VMULPD      Y3, Y2, Y2; \
	VMOVUPD     Y2, tapeRow_cellR(R8); \
	VMOVUPD     laneGroup_resScale(DI), Y3; \
	VMULPD      Y2, Y3, Y3; \
	VMOVUPD     Y3, tapeRow_res(R8); \
	VMOVUPD     sweepOne<>(SB), Y5; \
	VXORPD      Y6, Y6, Y6; \
	VMOVUPD     laneGroup_soc(DI), Y4; \
	CLAMP01(Y4, Y5, Y6, Y2); \
	VMULPD      Y4, Y4, Y2; \
	VMOVUPD     laneGroup_v0(DI), Y5; \
	VMULPD      Y1, Y5, Y1; \
	VMOVUPD     laneGroup_v2(DI), Y5; \
	VMULPD      Y2, Y5, Y5; \
	VMULPD      Y2, Y5, Y5; \
	VADDPD      Y5, Y1, Y1; \
	VMOVUPD     laneGroup_v3(DI), Y5; \
	VMULPD      Y2, Y5, Y5; \
	VMULPD      Y4, Y5, Y5; \
	VADDPD      Y5, Y1, Y1; \
	VMOVUPD     laneGroup_v4(DI), Y5; \
	VMULPD      Y2, Y5, Y5; \
	VADDPD      Y5, Y1, Y1; \
	VMOVUPD     laneGroup_v5(DI), Y5; \
	VMULPD      Y4, Y5, Y5; \
	VADDPD      Y5, Y1, Y1; \
	VADDPD      laneGroup_v6(DI), Y1, Y1; \
	VMOVUPD     laneGroup_ocvScale(DI), Y5; \
	VMULPD      Y1, Y5, Y1; \
	VMOVUPD     Y1, tapeRow_voc(R8)

// BAT2 (stage 6): η at voc; bsPre = battBus/η + idle where battBus ≥ 0,
// else battBus·η + idle; pmax = voc·voc/(4·res)·0.98. Hands on voc·voc in
// Y0, voc in Y1, bsPre in Y2, res in Y3, pmax in Y4, 4·res in Y5 and 0
// in Y6.
#define BAT2 \
	ETA(DI, Y1, laneGroup_bcNom, laneGroup_bcDroop, laneGroup_bcPeak, laneGroup_bcMin, Y4, Y2, Y5, Y6); \
	VMOVUPD   Y4, tapeRow_etaBatt(R8); \
	NFLAG(Y2, tapeRow_etaBattP); \
	VDIVPD    Y4, Y0, Y2; \
	VMULPD    Y4, Y0, Y5; \
	VXORPD    Y6, Y6, Y6; \
	VCMPPD    GE, Y6, Y0, Y4; \
	VBLENDVPD Y4, Y2, Y5, Y2; \
	VADDPD    laneGroup_bcIdle(DI), Y2, Y2; \
	VMOVUPD   Y2, tapeRow_bsPre(R8); \
	VMULPD    Y1, Y1, Y0; \
	VMOVUPD   sweepFour<>(SB), Y5; \
	VMULPD    Y3, Y5, Y5; \
	VDIVPD    Y5, Y0, Y4; \
	VMULPD    sweepPmax<>(SB), Y4, Y4; \
	VMOVUPD   Y4, tapeRow_pmax(R8)

// BAT3 (stage 7): battStorage = pmax where bsPre > pmax; the discriminant
// voc·voc − 4·res·battStorage clamped at 0, its square root and i =
// (voc − s)/(2·res). Hands on i in Y0 and 0 in Y6.
#define BAT3 \
	VCMPPD    GT, Y4, Y2, Y6; \
	VBLENDVPD Y6, Y4, Y2, Y2; \
	VMOVUPD   Y2, tapeRow_battStorage(R8); \
	FLAG(Y6, tapeRow_bsClamped); \
	VMULPD    Y2, Y5, Y5; \
	VSUBPD    Y5, Y0, Y0; \
	VXORPD    Y6, Y6, Y6; \
	VCMPPD    LT, Y6, Y0, Y4; \
	VBLENDVPD Y4, Y6, Y0, Y0; \
	FLAG(Y4, tapeRow_battDiscZero); \
	VSQRTPD   Y0, Y0; \
	VMOVUPD   Y0, tapeRow_sBatt(R8); \
	VSUBPD    Y0, Y1, Y0; \
	VMOVUPD   sweepTwo<>(SB), Y5; \
	VMULPD    Y3, Y5, Y5; \
	VDIVPD    Y5, Y0, Y0; \
	VMOVUPD   Y0, tapeRow_i(R8)

// BAT4 (stage 8): overC6 = i − packMaxI where that is > 0, else 0; cellI
// = i/parallel; heat = (cellI·cellI·cellR + cellI·tb·dVocdT)·cells;
// socPre = soc − i·dt/packCapC and the SoC clamped at 1 into lg. Hands on
// the heat in Y2, cellI in Y7 and tb in Y8.
#define BAT4 \
	VSUBPD    laneGroup_packMaxI(DI), Y0, Y1; \
	VCMPPD    GT, Y6, Y1, Y2; \
	VANDPD    Y2, Y1, Y1; \
	VMOVUPD   Y1, tapeRow_overC6(R8); \
	VDIVPD    laneGroup_parallel(DI), Y0, Y7; \
	VMOVUPD   Y7, tapeRow_cellI(R8); \
	VMULPD    Y7, Y7, Y2; \
	VMULPD    tapeRow_cellR(R8), Y2, Y2; \
	VMOVUPD   laneGroup_tb(DI), Y8; \
	VMULPD    Y8, Y7, Y4; \
	VMULPD    laneGroup_dVocDT(DI), Y4, Y4; \
	VADDPD    Y4, Y2, Y2; \
	VMULPD    laneGroup_cells(DI), Y2, Y2; \
	VMULPD    laneGroup_dt(DI), Y0, Y4; \
	VDIVPD    laneGroup_packCapC(DI), Y4, Y4; \
	VMOVUPD   laneGroup_soc(DI), Y5; \
	VSUBPD    Y4, Y5, Y5; \
	VMOVUPD   Y5, tapeRow_socPre(R8); \
	VMOVUPD   sweepOne<>(SB), Y4; \
	VCMPPD    GT, Y4, Y5, Y1; \
	VBLENDVPD Y1, Y4, Y5, Y5; \
	VMOVUPD   Y5, laneGroup_soc(DI); \
	FLAG(Y1, tapeRow_socClampHi)

// BAT5 (stage 8): the CN step. r0 = r0tb·tb + r0tc·tc + heat; r1 =
// r1tb·tb + r1tc·tc + w·ambient + qx; tb' = i00·r0 + i01·r1 and tc' =
// i10·r0 + i11·r1 into lg.
#define BAT5 \
	VMOVUPD laneGroup_tc(DI), Y4; \
	VMOVUPD laneGroup_r0tb(DI), Y0; \
	VMULPD  Y8, Y0, Y0; \
	VMOVUPD laneGroup_r0tc(DI), Y1; \
	VMULPD  Y4, Y1, Y1; \
	VADDPD  Y1, Y0, Y0; \
	VADDPD  Y2, Y0, Y0; \
	VMOVUPD laneGroup_r1tb(DI), Y1; \
	VMULPD  Y8, Y1, Y1; \
	VMOVUPD laneGroup_r1tc(DI), Y5; \
	VMULPD  Y4, Y5, Y5; \
	VADDPD  Y5, Y1, Y1; \
	VADDPD  laneGroup_wAmb(DI), Y1, Y1; \
	VADDPD  tapeRow_qx(R8), Y1, Y1; \
	VMOVUPD laneGroup_i00(DI), Y2; \
	VMULPD  Y0, Y2, Y2; \
	VMOVUPD laneGroup_i01(DI), Y3; \
	VMULPD  Y1, Y3, Y3; \
	VADDPD  Y3, Y2, Y2; \
	VMOVUPD laneGroup_i10(DI), Y3; \
	VMULPD  Y0, Y3, Y3; \
	VMOVUPD laneGroup_i11(DI), Y4; \
	VMULPD  Y1, Y4, Y4; \
	VADDPD  Y4, Y3, Y3; \
	VMOVUPD Y2, laneGroup_tb(DI); \
	VMOVUPD Y3, laneGroup_tc(DI); \
	VMOVUPD Y2, tapeRow_tb1(R8); \
	VMOVUPD Y3, tapeRow_tc1(R8)

// AGING (stage 9): Eq. 5 as agingSweep records it, from cellI in Y7 and
// tb0 in Y8. With ai = |cellI|, where battery.Ages holds (ai above
// floats.Eps, tb0 > 0) the row's aging is L[0]·exp(−L[1]/(R̄·tb0)) times
// the power law's direct form exp(yf·log ai)·ai, then times dt; elsewhere
// 0·dt. The power law's base is ai where its direct form applies (ai in
// [MinNormal, MaxFloat64]) and 1 elsewhere, as battery.Pow.LogArg gives
// it, so the logarithm never meets a base it declines; yf·log ai is then
// within ±355, inside the vector exp's range. A lane that ages where the
// direct form does not apply, its product leaves [2⁻¹⁰²⁰, 2¹⁰²⁰] or the
// Arrhenius argument is not finite or has |x| ≥ 700 (zeroed before its
// exp) stores a value the caller replaces: the lane's bit of lg.agingMiss
// is set. No state recurrence reads these registers.
#define AGING \
	VANDPD    expAbsMask<>(SB), Y7, Y7; \
	VXORPD    Y6, Y6, Y6; \
	VCMPPD    GT, Y6, Y8, Y9; \
	VCMPPD    LE, agingEps<>(SB), Y7, Y10; \
	VANDNPD   Y9, Y10, Y9; \
	VCMPPD    GE, logMinNormal<>(SB), Y7, Y10; \
	VCMPPD    LE, logMaxFloat<>(SB), Y7, Y11; \
	VANDPD    Y11, Y10, Y10; \
	VANDPD    laneGroup_powDirect(DI), Y10, Y10; \
	VMOVUPD   sweepOne<>(SB), Y0; \
	VBLENDVPD Y10, Y7, Y0, Y0; \
	LOG(Y0, Y1, X1, Y2, Y3, Y4, Y5, Y6); \
	VMULPD    laneGroup_powYf(DI), Y1, Y1; \
	VANDPD    Y10, Y1, Y1; \
	VMULPD    agingGas<>(SB), Y8, Y2; \
	VMOVUPD   laneGroup_agNegL1(DI), Y3; \
	VDIVPD    Y2, Y3, Y3; \
	VANDPD    expAbsMask<>(SB), Y3, Y4; \
	VCMPPD    LT, expLimit<>(SB), Y4, Y4; \
	VANDPD    Y4, Y3, Y3; \
	EXP(Y1, Y0, Y2, X2, Y5); \
	EXP(Y3, Y0, Y2, X2, Y5); \
	VMULPD    Y7, Y1, Y1; \
	VCMPPD    GE, agingPowLo<>(SB), Y1, Y5; \
	VCMPPD    LE, agingPowHi<>(SB), Y1, Y6; \
	VANDPD    Y6, Y5, Y5; \
	VANDPD    Y10, Y5, Y5; \
	VANDPD    Y4, Y5, Y5; \
	VANDNPD   Y9, Y5, Y5; \
	VMOVMSKPD Y5, AX; \
	ORQ       AX, laneGroup_agingMiss(DI); \
	VMULPD    laneGroup_agL0(DI), Y3, Y3; \
	VMULPD    Y1, Y3, Y3; \
	VANDPD    Y9, Y3, Y3; \
	VMULPD    laneGroup_dt(DI), Y3, Y3; \
	VMOVUPD   Y3, tapeRow_aging(R8)

// PENALTY adds the hinge term W·D·D to the running cost in Y12 where
// D > 0, with Y6 holding 0; T and M are scratch. Where D ≤ 0 or NaN the
// term is blended to +0 by its mask, and adding +0 to a sum that started
// at +0 leaves its bits unchanged (DESIGN.md §10).
#define PENALTY(W, D, T, M) \
	VCMPPD GT, Y6, D, M; \
	VMULPD W, D, T; \
	VMULPD D, T, T; \
	VANDPD M, T, T; \
	VADDPD T, Y12, Y12

// COST (stage 10): the step's penalties, in laneCost's order, from the
// row: the SoE window, the pmax clamp (bsPre > pmax, as stage 7 decides
// it), the C6 excess, the SoC window, the safe temperature and the
// temperature pressure. The C6 term needs no mask: overC6 is +0 where
// it is not positive, and so is 1e3·0·0. Hands on the SoC clamped at 1
// in Y7 and tb1 in Y8, and leaves 0 in Y6.
#define COST \
	VXORPD    Y6, Y6, Y6; \
	VMOVUPD   tapeRow_soePre(R8), Y0; \
	VMOVUPD   laneGroup_capMinSoE(DI), Y1; \
	VSUBPD    Y0, Y1, Y1; \
	PENALTY(laneGroup_stateWeight(DI), Y1, Y4, Y2); \
	VSUBPD    sweepOne<>(SB), Y0, Y1; \
	PENALTY(laneGroup_stateWeight(DI), Y1, Y4, Y2); \
	VMOVUPD   tapeRow_bsPre(R8), Y0; \
	VMOVUPD   tapeRow_pmax(R8), Y1; \
	VCMPPD    GT, Y1, Y0, Y2; \
	VSUBPD    Y1, Y0, Y0; \
	VDIVPD    sweep1e3<>(SB), Y0, Y0; \
	VMULPD    sweep1e6<>(SB), Y0, Y1; \
	VMULPD    Y0, Y1, Y1; \
	VANDPD    Y2, Y1, Y1; \
	VADDPD    Y1, Y12, Y12; \
	VMOVUPD   tapeRow_overC6(R8), Y0; \
	VMULPD    sweep1e3<>(SB), Y0, Y1; \
	VMULPD    Y0, Y1, Y1; \
	VADDPD    Y1, Y12, Y12; \
	VMOVUPD   tapeRow_socPre(R8), Y0; \
	VMOVUPD   laneGroup_battMinSoC(DI), Y1; \
	VSUBPD    Y0, Y1, Y1; \
	PENALTY(laneGroup_stateWeight(DI), Y1, Y4, Y2); \
	VMOVUPD   sweepOne<>(SB), Y5; \
	VSUBPD    Y5, Y0, Y1; \
	PENALTY(laneGroup_stateWeight(DI), Y1, Y4, Y2); \
	VBLENDVPD Y2, Y5, Y0, Y7; \
	VMOVUPD   tapeRow_tb1(R8), Y8; \
	VSUBPD    laneGroup_safeTemp(DI), Y8, Y1; \
	PENALTY(laneGroup_safeTempWeight(DI), Y1, Y4, Y2); \
	VMULPD    laneGroup_battHeatCap(DI), Y8, Y1; \
	VMOVUPD   tapeRow_tc1(R8), Y2; \
	VMULPD    laneGroup_coolHeatCap(DI), Y2, Y2; \
	VADDPD    Y2, Y1, Y1; \
	VDIVPD    laneGroup_heatCapSum(DI), Y1, Y1; \
	VSUBPD    laneGroup_targetTemp(DI), Y1, Y1; \
	PENALTY(laneGroup_pressureWeight(DI), Y1, Y4, Y2)

// TRACK (stage 10, where a lane tracks a reference): (soc − refSoC[k])²
// and (tb1 − refTb[k])² at their weights, from the SoC in Y7 and tb1 in
// Y8, each blended to +0 in the lanes that do not track it.
#define TRACK \
	GATHER(laneGroup_refSoC, Y0, X0, X1); \
	VSUBPD  Y0, Y7, Y0; \
	VMULPD  laneGroup_socRefWeight(DI), Y0, Y1; \
	VMULPD  Y0, Y1, Y1; \
	VANDPD  laneGroup_trackSoC(DI), Y1, Y1; \
	VADDPD  Y1, Y12, Y12; \
	GATHER(laneGroup_refTb, Y0, X0, X1); \
	VSUBPD  Y0, Y8, Y0; \
	VMULPD  laneGroup_tbRefWeight(DI), Y0, Y1; \
	VMULPD  Y0, Y1, Y1; \
	VANDPD  laneGroup_trackTb(DI), Y1, Y1; \
	VADDPD  Y1, Y12, Y12

// STEPCOST (stage 10): the Eq. 19 step term w1·pcool·dt + w2·aging +
// w3·(voc·i·dt + dEcap), left to right, summed and then added.
#define STEPCOST \
	VMOVUPD laneGroup_w1(DI), Y0; \
	VMULPD  tapeRow_pcool(R8), Y0, Y0; \
	VMULPD  laneGroup_dt(DI), Y0, Y0; \
	VMOVUPD laneGroup_w2(DI), Y1; \
	VMULPD  tapeRow_aging(R8), Y1, Y1; \
	VADDPD  Y1, Y0, Y0; \
	VMOVUPD tapeRow_voc(R8), Y1; \
	VMULPD  tapeRow_i(R8), Y1, Y1; \
	VMULPD  laneGroup_dt(DI), Y1, Y1; \
	VADDPD  tapeRow_dEcap(R8), Y1, Y1; \
	VMULPD  laneGroup_w3(DI), Y1, Y1; \
	VADDPD  Y1, Y0, Y0; \
	VADDPD  Y0, Y12, Y12

// func sweepGroup(lg *laneGroup, k int) int
TEXT ·sweepGroup(SB), NOSPLIT, $0-24
	MOVQ    lg+0(FP), DI
	MOVQ    k+8(FP), BX
	VMOVUPD laneGroup_cost(DI), Y12
	CMPQ    laneGroup_resume(DI), $0
	JEQ     step
	// The caller has put step BX's exponentials into its row.
	MOVQ $0, laneGroup_resume(DI)
	ROW
	JMP  stages

step:
	CMPQ BX, laneGroup_horizon(DI)
	JGE  done
	// Blocked-input cursor: base walks z one block every bs steps.
	CMPQ BX, laneGroup_nextBlockAt(DI)
	JNE  row
	MOVQ laneGroup_base(DI), AX
	CMPQ AX, laneGroup_lastBase(DI)
	JGE  row
	ADDQ laneGroup_mIn(DI), AX
	MOVQ AX, laneGroup_base(DI)
	MOVQ laneGroup_bs(DI), AX
	ADDQ AX, laneGroup_nextBlockAt(DI)

row:
	ROW
	EXPARGS
	VMOVMSKPD Y0, AX
	CMPL      AX, $15
	JNE       handback
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
	CMPQ laneGroup_track(DI), $0
	JEQ  untracked
	TRACK

untracked:
	STEPCOST
	INCQ BX
	JMP  step

handback:
	// A lane's exponential argument at step BX is not finite or beyond
	// the vector exp's range: hand the arguments to the caller, which
	// evaluates them into the row and resumes.
	VMOVUPD Y2, laneGroup_e+0(DI)
	VMOVUPD Y3, laneGroup_e+64(DI)
	VMOVUPD Y4, laneGroup_e+128(DI)

done:
	VMOVUPD Y12, laneGroup_cost(DI)
	MOVQ    BX, ret+16(FP)
	VZEROUPPER
	RET
