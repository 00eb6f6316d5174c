package ml

import (
	"math"
	"os"
)

// vector selects the package's AVX2 kernels: the LSTM forward kernel
// (lstm_amd64.go) and the dense product kernel (gemmVector). It is
// fixed at init from the platform alone:
//
//   - the CPU must have AVX2, and GODEBUG must not mask it
//     (cpu.avx2=off or cpu.all=off, read by the runtime's rule);
//   - math.Exp must run on its FMA path. That path needs AVX and FMA
//     with YMM state saved by the OS, so the probe also proves the
//     registers usable. Where math.Exp takes its unfused path (no FMA,
//     or GODEBUG=cpu.fma=off) the Go kernels run, because their sigmoid
//     then rounds differently from the LSTM kernel's port.
var vector = cpuAVX2() && !cpuOptionOff(os.Getenv("GODEBUG"), "avx2") &&
	math.Float64bits(math.Exp(expProbe)) == expFMABits

// cpuAVX2 reports CPUID leaf 7's AVX2 bit (EBX bit 5).
func cpuAVX2() bool

// gemmAVX2 is gemm on raw pointers; bias may be nil. It checks nothing:
// gemmVector checks the operands' extents first.
//
//go:noescape
func gemmAVX2(c *float64, ldc int, a *float64, lda int, b *float64, ldb int, rows, cols, kn int, bias *float64, relu bool)

// gemmVector is gemm on the AVX2 kernel. The kernel tiles four rows by
// eight outputs, two YMM accumulators per row, and the last rows one at
// a time by sixteen, four accumulators. Each accumulator starts at the
// bias, or +0, and adds each term as a VMULPD and a VADDPD, never a fused
// multiply-add, because gemmGo rounds every product; k runs ascending.
// So each output lane is the same sum, in the same order, as gemmGo's. A
// tile's last columns are loaded and stored under a mask, so no output
// past cols is written. The ReLU keeps a lane unless it compares below
// zero, which leaves -0 and NaN as relu0 leaves them.
//
//fleetvet:noalloc
func gemmVector(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, rows, cols, kn int, bias []float64, relu bool) {
	if rows <= 0 || cols <= 0 {
		return
	}
	_ = c[(rows-1)*ldc+cols-1]
	var ap, bp, biasp *float64
	if kn > 0 {
		_ = a[(rows-1)*lda+kn-1]
		_ = b[(kn-1)*ldb+cols-1]
		ap, bp = &a[0], &b[0]
	}
	if bias != nil {
		_ = bias[cols-1]
		biasp = &bias[0]
	}
	gemmAVX2(&c[0], ldc, ap, lda, bp, ldb, rows, cols, kn, biasp, relu)
}
