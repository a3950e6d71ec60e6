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
// lane's argument is not finite or has |x| ≥ 700.
//
// One call runs the whole horizon for one group of four lanes: the group
// at DI, the step's tape rows at R8–R11, Y0–Y6 and the scatter scratch
// X14, with the step in BX. The capacitor stages (1–4) do not read the
// battery's state, so step k+1's capacitor chain overlaps step k's battery
// chain in the out-of-order window. Results go to each lane's tape row at
// the stepTape_* offsets of go_asm.h.

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

// ROWS points R0–R3 at the four tape rows of step BX of the lanes of
// block B.
#define ROWS(B, R0, R1, R2, R3) \
	MOVQ  BX, AX; \
	IMULQ $stepTape__size, AX; \
	MOVQ  laneGroup_tape+0(B), R0; \
	ADDQ  AX, R0; \
	MOVQ  laneGroup_tape+8(B), R1; \
	ADDQ  AX, R1; \
	MOVQ  laneGroup_tape+16(B), R2; \
	ADDQ  AX, R2; \
	MOVQ  laneGroup_tape+24(B), R3; \
	ADDQ  AX, R3

// PUT stores the four lanes of Y (low half X) to field off of rows R0–R3,
// through the xmm scratch S.
#define PUT(Y, X, off, R0, R1, R2, R3, S) \
	VMOVSD       X, off(R0); \
	VMOVHPD      X, off(R1); \
	VEXTRACTF128 $1, Y, S; \
	VMOVSD       S, off(R2); \
	VMOVHPD      S, off(R3)

// BITS stores bit j of AX as the bool at off of row Rj.
#define BITS(off, R0, R1, R2, R3) \
	BTL   $0, AX; \
	SETCS off(R0); \
	BTL   $1, AX; \
	SETCS off(R1); \
	BTL   $2, AX; \
	SETCS off(R2); \
	BTL   $3, AX; \
	SETCS off(R3)

// FLAG stores the lanes of mask M as a bool field; NFLAG stores their
// complement.
#define FLAG(M, off, R0, R1, R2, R3) \
	VMOVMSKPD M, AX; \
	BITS(off, R0, R1, R2, R3)

#define NFLAG(M, off, R0, R1, R2, R3) \
	VMOVMSKPD M, AX; \
	XORL      $15, AX; \
	BITS(off, R0, R1, R2, R3)

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

// INRANGE ands into M the lanes of X with |x| < 700 (LT_OQ: NaN and ±Inf
// fail); T is scratch.
#define INRANGE(X, M, T) \
	VANDPD expAbsMask<>(SB), X, T; \
	VCMPPD LT, expLimit<>(SB), T, T; \
	VANDPD T, M, M

// The stages of one step for the four lanes of the group at DI, whose rows
// of the step R8–R11 point at, with X14 the xmm scratch of PUT and Y0–Y6
// the ymm registers they use. A stage hands the next one values in the
// registers noted under each and everything else through the group.

// EXPARGS: the tape head, and the arguments of Eq. 2's and Eq. 3's
// exponentials, V[1]·z, R[1]·z and Kr·(1/T − 1/Tref) (0 without a
// temperature correction or at T ≤ 0) at z = clamp(soc, 0, 1), stored to
// lg.e. Leaves them in Y2, Y3, Y4 and the lanes all three of whose
// arguments the vector exp takes in Y0.
#define EXPARGS \
	VMOVUPD   laneGroup_soc(DI), Y0; \
	PUT(Y0, X0, stepTape_soc0, R8, R9, R10, R11, X14); \
	VMOVUPD   laneGroup_tb(DI), Y1; \
	PUT(Y1, X1, stepTape_tb0, R8, R9, R10, R11, X14); \
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
	VMOVUPD   Y2, laneGroup_e+0(DI); \
	VMOVUPD   Y3, laneGroup_e+32(DI); \
	VMOVUPD   Y4, laneGroup_e+64(DI); \
	VCMPPD    $0x0f, Y5, Y5, Y0; \
	INRANGE(Y2, Y0, Y1); \
	INRANGE(Y3, Y0, Y1); \
	INRANGE(Y4, Y0, Y1)

// EXPS: the exponentials of the arguments EXPARGS left in Y2, Y3 and Y4,
// stored over them in lg.e.
#define EXPS \
	EXP(Y2, Y0, Y1, X1, Y5); \
	VMOVUPD   Y2, laneGroup_e+0(DI); \
	EXP(Y3, Y0, Y1, X1, Y5); \
	VMOVUPD   Y3, laneGroup_e+32(DI); \
	EXP(Y4, Y0, Y1, X1, Y5); \
	VMOVUPD   Y4, laneGroup_e+64(DI)

// CAP1 (stage 1): each lane's (capU, coolU) = z[base:base+2] (base
// is lg's blocked-input cursor), pcool = coolU·(coolerMax +
// pump), qx = −coolU·coolEff·coolerMax, and vcap = capBusV·sqrt(soe)
// where soe > 1e-6, else capBusV·sqrt(1e-6). Hands on capU in Y0 and vcap
// in Y2.
#define CAP1 \
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
	VUNPCKLPD   Y1, Y0, Y0; \
	VMOVUPD     laneGroup_soe(DI), Y1; \
	PUT(Y1, X1, stepTape_soe0, R8, R9, R10, R11, X14); \
	VMULPD      laneGroup_coolP(DI), Y2, Y3; \
	VMOVUPD     Y3, laneGroup_pcool(DI); \
	PUT(Y3, X3, stepTape_pcool, R8, R9, R10, R11, X14); \
	VXORPD      sweepSign<>(SB), Y2, Y2; \
	VMULPD      laneGroup_coolEff(DI), Y2, Y2; \
	VMULPD      laneGroup_coolerMax(DI), Y2, Y2; \
	VMOVUPD     Y2, laneGroup_qx(DI); \
	PUT(Y2, X2, stepTape_qx, R8, R9, R10, R11, X14); \
	VSQRTPD     Y1, Y2; \
	VMOVUPD     laneGroup_capBusV(DI), Y3; \
	VMULPD      Y2, Y3, Y2; \
	VCMPPD      GT, sweepSoEFloor<>(SB), Y1, Y3; \
	VMOVUPD     laneGroup_vcapFloor(DI), Y4; \
	VBLENDVPD   Y3, Y2, Y4, Y2; \
	PUT(Y2, X2, stepTape_vcap, R8, R9, R10, R11, X14); \
	NFLAG(Y3, stepTape_vcapClamped, R8, R9, R10, R11)

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
	PUT(Y3, X3, stepTape_capMax, R8, R9, R10, R11, X14); \
	FLAG(Y5, stepTape_sagBranch, R8, R9, R10, R11); \
	ETA(DI, Y2, laneGroup_ccNom, laneGroup_ccDroop, laneGroup_ccPeak, laneGroup_ccMin, Y4, Y5, Y6, Y1); \
	PUT(Y4, X4, stepTape_etaCapBus, R8, R9, R10, R11, X14); \
	NFLAG(Y5, stepTape_etaCapBusP, R8, R9, R10, R11); \
	VSUBPD    laneGroup_ccIdle(DI), Y3, Y3; \
	VMULPD    Y4, Y3, Y3; \
	VMOVUPD   laneGroup_capPowerScale(DI), Y5; \
	VMULPD    Y5, Y0, Y0; \
	VCMPPD    GT, Y3, Y0, Y5; \
	VBLENDVPD Y5, Y3, Y0, Y0; \
	VMOVUPD   Y0, laneGroup_capBus(DI); \
	PUT(Y0, X0, stepTape_capBus, R8, R9, R10, R11, X14); \
	FLAG(Y5, stepTape_capClamped, R8, R9, R10, R11); \
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
	FLAG(Y5, stepTape_capDiscZero, R8, R9, R10, R11); \
	VSUBPD    Y4, Y2, Y5; \
	VDIVPD    laneGroup_capESR2(DI), Y5, Y5; \
	VANDPD    Y1, Y4, Y4; \
	PUT(Y4, X4, stepTape_sCap, R8, R9, R10, R11, X14); \
	VDIVPD    Y2, Y3, Y4; \
	VCMPPD    GT, Y6, Y2, Y0; \
	VANDPD    Y0, Y4, Y4; \
	VBLENDVPD Y1, Y5, Y4, Y4; \
	PUT(Y4, X4, stepTape_capI, R8, R9, R10, R11, X14)

// CAP4 (stage 4): dEcap = (capStorage + capI·capI·capESR)·dt, soePre =
// soe − dEcap/capEnergy, and the SoE clamped at 1 into lg.
#define CAP4 \
	VMULPD    Y4, Y4, Y5; \
	VMULPD    laneGroup_capESR(DI), Y5, Y5; \
	VADDPD    Y5, Y3, Y5; \
	VMULPD    laneGroup_dt(DI), Y5, Y5; \
	PUT(Y5, X5, stepTape_dEcap, R8, R9, R10, R11, X14); \
	VDIVPD    laneGroup_capEnergy(DI), Y5, Y5; \
	VMOVUPD   laneGroup_soe(DI), Y1; \
	VSUBPD    Y5, Y1, Y1; \
	PUT(Y1, X1, stepTape_soePre, R8, R9, R10, R11, X14); \
	VMOVUPD   sweepOne<>(SB), Y5; \
	VCMPPD    GT, Y5, Y1, Y0; \
	VBLENDVPD Y0, Y5, Y1, Y1; \
	VMOVUPD   Y1, laneGroup_soe(DI); \
	FLAG(Y0, stepTape_soeClampHi, R8, R9, R10, R11)

// BAT1 (stage 6): battBus = load + pcool − capBus; the exponentials from
// lg.e; cellR = (R[0]·ez + R[2])·et, kept in lg, and res; voc =
// scale·OCVFromExp(z, e), left to right. Hands on battBus in Y0, voc in Y1
// and res in Y3.
#define BAT1 \
	MOVQ        laneGroup_fc+0(DI), CX; \
	VMOVSD      (CX)(BX*8), X0; \
	MOVQ        laneGroup_fc+8(DI), CX; \
	VMOVHPD     (CX)(BX*8), X0, X0; \
	MOVQ        laneGroup_fc+16(DI), CX; \
	VMOVSD      (CX)(BX*8), X1; \
	MOVQ        laneGroup_fc+24(DI), CX; \
	VMOVHPD     (CX)(BX*8), X1, X1; \
	VINSERTF128 $1, X1, Y0, Y0; \
	VADDPD      laneGroup_pcool(DI), Y0, Y0; \
	VSUBPD      laneGroup_capBus(DI), Y0, Y0; \
	PUT(Y0, X0, stepTape_battBus, R8, R9, R10, R11, X14); \
	VMOVUPD     laneGroup_e+0(DI), Y1; \
	PUT(Y1, X1, stepTape_ocvExp, R8, R9, R10, R11, X14); \
	VMOVUPD     laneGroup_e+32(DI), Y2; \
	PUT(Y2, X2, stepTape_resZExp, R8, R9, R10, R11, X14); \
	VMOVUPD     laneGroup_e+64(DI), Y3; \
	PUT(Y3, X3, stepTape_resTExp, R8, R9, R10, R11, X14); \
	VMOVUPD     laneGroup_r0(DI), Y4; \
	VMULPD      Y2, Y4, Y2; \
	VADDPD      laneGroup_r2(DI), Y2, Y2; \
	VMULPD      Y3, Y2, Y2; \
	VMOVUPD     Y2, laneGroup_cellR(DI); \
	PUT(Y2, X2, stepTape_cellR, R8, R9, R10, R11, X14); \
	VMOVUPD     laneGroup_resScale(DI), Y3; \
	VMULPD      Y2, Y3, Y3; \
	PUT(Y3, X3, stepTape_res, R8, R9, R10, R11, X14); \
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
	PUT(Y1, X1, stepTape_voc, R8, R9, R10, R11, X14)

// BAT2 (stage 6): η at voc; bsPre = battBus/η + idle where battBus ≥ 0,
// else battBus·η + idle; pmax = voc·voc/(4·res)·0.98. Hands on voc·voc in
// Y0, voc in Y1, bsPre in Y2, res in Y3, pmax in Y4, 4·res in Y5 and 0
// in Y6.
#define BAT2 \
	ETA(DI, Y1, laneGroup_bcNom, laneGroup_bcDroop, laneGroup_bcPeak, laneGroup_bcMin, Y4, Y2, Y5, Y6); \
	PUT(Y4, X4, stepTape_etaBatt, R8, R9, R10, R11, X14); \
	NFLAG(Y2, stepTape_etaBattP, R8, R9, R10, R11); \
	VDIVPD    Y4, Y0, Y2; \
	VMULPD    Y4, Y0, Y5; \
	VXORPD    Y6, Y6, Y6; \
	VCMPPD    GE, Y6, Y0, Y4; \
	VBLENDVPD Y4, Y2, Y5, Y2; \
	VADDPD    laneGroup_bcIdle(DI), Y2, Y2; \
	PUT(Y2, X2, stepTape_bsPre, R8, R9, R10, R11, X14); \
	VMULPD    Y1, Y1, Y0; \
	VMOVUPD   sweepFour<>(SB), Y5; \
	VMULPD    Y3, Y5, Y5; \
	VDIVPD    Y5, Y0, Y4; \
	VMULPD    sweepPmax<>(SB), Y4, Y4; \
	PUT(Y4, X4, stepTape_pmax, R8, R9, R10, R11, X14)

// BAT3 (stage 7): battStorage = pmax where bsPre > pmax; the discriminant
// voc·voc − 4·res·battStorage clamped at 0, its square root and i =
// (voc − s)/(2·res). Hands on i in Y0 and 0 in Y6.
#define BAT3 \
	VCMPPD    GT, Y4, Y2, Y6; \
	VBLENDVPD Y6, Y4, Y2, Y2; \
	PUT(Y2, X2, stepTape_battStorage, R8, R9, R10, R11, X14); \
	FLAG(Y6, stepTape_bsClamped, R8, R9, R10, R11); \
	VMULPD    Y2, Y5, Y5; \
	VSUBPD    Y5, Y0, Y0; \
	VXORPD    Y6, Y6, Y6; \
	VCMPPD    LT, Y6, Y0, Y4; \
	VBLENDVPD Y4, Y6, Y0, Y0; \
	FLAG(Y4, stepTape_battDiscZero, R8, R9, R10, R11); \
	VSQRTPD   Y0, Y0; \
	PUT(Y0, X0, stepTape_sBatt, R8, R9, R10, R11, X14); \
	VSUBPD    Y0, Y1, Y0; \
	VMOVUPD   sweepTwo<>(SB), Y5; \
	VMULPD    Y3, Y5, Y5; \
	VDIVPD    Y5, Y0, Y0; \
	PUT(Y0, X0, stepTape_i, R8, R9, R10, R11, X14)

// BAT4 (stage 8): overC6 = i − packMaxI where that is > 0, else 0; cellI
// = i/parallel; heat = (cellI·cellI·cellR + cellI·tb·dVocdT)·cells;
// socPre = soc − i·dt/packCapC and the SoC clamped at 1 into lg. Hands on
// the heat in Y2 and tb in Y3.
#define BAT4 \
	VSUBPD    laneGroup_packMaxI(DI), Y0, Y1; \
	VCMPPD    GT, Y6, Y1, Y2; \
	VANDPD    Y2, Y1, Y1; \
	PUT(Y1, X1, stepTape_overC6, R8, R9, R10, R11, X14); \
	VDIVPD    laneGroup_parallel(DI), Y0, Y1; \
	PUT(Y1, X1, stepTape_cellI, R8, R9, R10, R11, X14); \
	VMULPD    Y1, Y1, Y2; \
	VMULPD    laneGroup_cellR(DI), Y2, Y2; \
	VMOVUPD   laneGroup_tb(DI), Y3; \
	VMULPD    Y3, Y1, Y4; \
	VMULPD    laneGroup_dVocDT(DI), Y4, Y4; \
	VADDPD    Y4, Y2, Y2; \
	VMULPD    laneGroup_cells(DI), Y2, Y2; \
	VMULPD    laneGroup_dt(DI), Y0, Y4; \
	VDIVPD    laneGroup_packCapC(DI), Y4, Y4; \
	VMOVUPD   laneGroup_soc(DI), Y5; \
	VSUBPD    Y4, Y5, Y5; \
	PUT(Y5, X5, stepTape_socPre, R8, R9, R10, R11, X14); \
	VMOVUPD   sweepOne<>(SB), Y4; \
	VCMPPD    GT, Y4, Y5, Y1; \
	VBLENDVPD Y1, Y4, Y5, Y5; \
	VMOVUPD   Y5, laneGroup_soc(DI); \
	FLAG(Y1, stepTape_socClampHi, R8, R9, R10, R11)

// BAT5 (stage 8): the CN step. r0 = r0tb·tb + r0tc·tc + heat; r1 =
// r1tb·tb + r1tc·tc + w·ambient + qx; tb' = i00·r0 + i01·r1 and tc' =
// i10·r0 + i11·r1 into lg.
#define BAT5 \
	VMOVUPD laneGroup_tc(DI), Y4; \
	VMOVUPD laneGroup_r0tb(DI), Y0; \
	VMULPD  Y3, Y0, Y0; \
	VMOVUPD laneGroup_r0tc(DI), Y1; \
	VMULPD  Y4, Y1, Y1; \
	VADDPD  Y1, Y0, Y0; \
	VADDPD  Y2, Y0, Y0; \
	VMOVUPD laneGroup_r1tb(DI), Y1; \
	VMULPD  Y3, Y1, Y1; \
	VMOVUPD laneGroup_r1tc(DI), Y5; \
	VMULPD  Y4, Y5, Y5; \
	VADDPD  Y5, Y1, Y1; \
	VADDPD  laneGroup_wAmb(DI), Y1, Y1; \
	VADDPD  laneGroup_qx(DI), Y1, Y1; \
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
	PUT(Y2, X2, stepTape_tb1, R8, R9, R10, R11, X14); \
	PUT(Y3, X3, stepTape_tc1, R8, R9, R10, R11, X14)

// func sweepGroup(lg *laneGroup, k int) int
TEXT ·sweepGroup(SB), NOSPLIT, $0-24
	MOVQ lg+0(FP), DI
	MOVQ k+8(FP), BX
	CMPQ laneGroup_resume(DI), $0
	JEQ  step
	// The caller has put step BX's exponentials into lg.e.
	MOVQ $0, laneGroup_resume(DI)
	ROWS(DI, R8, R9, R10, R11)
	JMP  stages

step:
	CMPQ BX, laneGroup_horizon(DI)
	JGE  done
	// Blocked-input cursor: base walks z one block every bs steps.
	CMPQ BX, laneGroup_nextBlockAt(DI)
	JNE  rows
	MOVQ laneGroup_base(DI), AX
	CMPQ AX, laneGroup_lastBase(DI)
	JGE  rows
	ADDQ laneGroup_mIn(DI), AX
	MOVQ AX, laneGroup_base(DI)
	MOVQ laneGroup_bs(DI), AX
	ADDQ AX, laneGroup_nextBlockAt(DI)

rows:
	ROWS(DI, R8, R9, R10, R11)
	EXPARGS
	VMOVMSKPD Y0, AX
	CMPL      AX, $15
	JNE       done
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
	INCQ BX
	JMP  step

done:
	// At the horizon, or at step BX with a lane's exponential argument
	// out of the vector exp's range: lg.e holds the arguments, and the
	// caller evaluates them and resumes.
	MOVQ BX, ret+16(FP)
	VZEROUPPER
	RET
