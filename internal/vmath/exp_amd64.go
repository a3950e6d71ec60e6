package vmath

// hostAVX2FMA reports whether the vector kernel can run here: the CPU
// advertises AVX2 and FMA and the OS saves the ymm state. math.Exp itself
// takes its FMA path whenever AVX and FMA are present, so on every host
// where the kernel runs it mirrors the scalar instruction sequence the
// math package executes. Checked once at init.
var hostAVX2FMA = cpuHasAVX2FMA()

// useAVX2FMA reports whether Exp4 runs the vector kernel: the host's
// capability unless UsePortable switched it off.
var useAVX2FMA = hostAVX2FMA

// exp4AVX overwrites x with the exponentials of its four lanes and reports
// true, or leaves x untouched and reports false when any lane is not
// finite or has |x| ≥ expLimit. It is math.archExp's FMA path widened to
// four lanes, op for op: the LOG2E scaling and round-to-nearest exponent
// (VCVTPD2DQ), the two-part LN2U/LN2L reduction (VFNMADD231PD), the ×1/16
// argument scaling, the VFMADD213PD Horner chain, the three x·(x+2)
// squarings and the fused fourth with +1, and the 2^k scale built from the
// biased exponent shifted into place (VPSLLQ $52).
//
//go:noescape
func exp4AVX(x *[4]float64) bool

// cpuHasAVX2FMA reports CPUID AVX2 (leaf 7) and FMA+AVX+OSXSAVE (leaf 1)
// with the xmm and ymm state enabled in XCR0.
func cpuHasAVX2FMA() bool
