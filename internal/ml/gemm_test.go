package ml

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"
)

// TestCPUOptionOff holds the GODEBUG reading to the runtime's rule.
func TestCPUOptionOff(t *testing.T) {
	for _, tc := range []struct {
		env string
		off bool
	}{
		{"", false},
		{"cpu.avx2=off", true},
		{"cpu.avx2=on", false},
		{"cpu.all=off", true},
		{"cpu.all=off,cpu.avx2=on", false},
		{"cpu.avx2=off,cpu.all=on", false},
		{"cpu.avx2=off,cpu.avx2=on", false},
		{"cpu.avx2=on,cpu.avx2=off", true},
		// Another key before it, of the runtime or of another feature.
		{"gctrace=1,cpu.avx2=off", true},
		{"cpu.fma=off,cpu.avx2=off", true},
		{"cpu.fma=off", false},
		{"cpu.avx=off", false},
		// A field without '=' sets nothing.
		{"cpu.avx2", false},
		{"cpu.avx2=off,cpu.avx2", true},
		// Nor does an unknown value.
		{"cpu.avx2=maybe", false},
		{"cpu.avx2=off,cpu.avx2=OFF", true},
		{"cpu.avx2=off,cpu.avx2=", true},
	} {
		if got := cpuOptionOff(tc.env, "avx2"); got != tc.off {
			t.Errorf("cpuOptionOff(%q, avx2) = %v, want %v", tc.env, got, tc.off)
		}
	}
}

// gemmKinds are the operand distributions of the kernel differential.
// Each draws a, b and the bias from one function.
func gemmKinds(rng *rand.Rand) []struct {
	name string
	draw func() float64
} {
	pick := func(vs ...float64) func() float64 {
		return func() float64 { return vs[rng.Intn(len(vs))] }
	}
	negZero := math.Copysign(0, -1)
	special := pick(math.Inf(1), math.Inf(-1), math.NaN(), 0, negZero, 5e-324, -5e-324, -1e-310, 2.2250738585072014e-308)
	return []struct {
		name string
		draw func() float64
	}{
		{"gauss", rng.NormFloat64},
		// Magnitudes from 1e-320 to 1e308: products overflow to ±Inf and
		// underflow to subnormals or zero, and sums of opposite
		// infinities become NaN.
		{"logmag", func() float64 {
			return math.Copysign(math.Pow(10, rng.Float64()*628-320), rng.Float64()-0.5)
		}},
		// Signed zeros and ones: -0 products onto +0 sums, -0 biases,
		// and ReLU inputs of -0, +0 and NaN.
		{"zeros", pick(0, negZero, 1, -1, 5e-324, math.NaN())},
		{"special", func() float64 {
			if rng.Intn(8) == 0 {
				return special()
			}
			return rng.NormFloat64()
		}},
	}
}

// TestGEMMVectorMatchesGoKernel runs gemmVector and gemmGo on the same
// operands, every tile remainder of rows and columns and a range of
// reduction lengths, with leading dimensions wider than the operands,
// and compares every output bit for bit, NaN only as NaN. Neither
// kernel may write past cols in a row of c.
func TestGEMMVectorMatchesGoKernel(t *testing.T) {
	if !vector {
		t.Skipf("vector kernels off on %s (AVX2 %v, masked by GODEBUG %v, Exp(%v) bits %#x): gemmGo is the only dense kernel",
			runtime.GOARCH, cpuAVX2(), cpuOptionOff(os.Getenv("GODEBUG"), "avx2"), expProbe, math.Float64bits(math.Exp(expProbe)))
	}
	const maxRows, maxCols = 9, 17
	// A quiet NaN no kernel computes: the padding of c must keep it.
	sentinel := math.Float64frombits(0x7ff8_dead_beef_0001)
	rng := rand.New(rand.NewSource(27))
	for _, kind := range gemmKinds(rng) {
		for _, kn := range []int{0, 1, 2, 7, 64, 192} {
			lda, ldb, ldc := kn+3, maxCols+5, maxCols+2
			fill := func(n int) []float64 {
				v := make([]float64, n)
				for i := range v {
					v[i] = kind.draw()
				}
				return v
			}
			a, b, bias := fill(maxRows*lda), fill(kn*ldb), fill(maxCols)
			for _, mode := range []struct {
				name string
				bias []float64
				relu bool
			}{{"zero", nil, false}, {"bias", bias, false}, {"zero-relu", nil, true}, {"bias-relu", bias, true}} {
				t.Run(fmt.Sprintf("%s/k=%d/%s", kind.name, kn, mode.name), func(t *testing.T) {
					goC, vecC := make([]float64, maxRows*ldc), make([]float64, maxRows*ldc)
					for rows := 1; rows <= maxRows; rows++ {
						for cols := 1; cols <= maxCols; cols++ {
							for i := range goC {
								goC[i], vecC[i] = sentinel, sentinel
							}
							gemmGo(goC, ldc, a, lda, b, ldb, rows, cols, kn, mode.bias, mode.relu)
							gemmVector(vecC, ldc, a, lda, b, ldb, rows, cols, kn, mode.bias, mode.relu)
							what := fmt.Sprintf("%dx%d", rows, cols)
							for r := 0; r < rows; r++ {
								sameKernelBits(t, what, vecC[r*ldc:][:cols], goC[r*ldc:][:cols])
								for j := r*ldc + cols; j < len(vecC) && j < (r+1)*ldc; j++ {
									if math.Float64bits(vecC[j]) != math.Float64bits(sentinel) {
										t.Fatalf("%s: vector kernel wrote c[%d] = %v, past column %d of row %d", what, j, vecC[j], cols, r)
									}
								}
							}
						}
					}
				})
			}
		}
	}
}

// BenchmarkGEMM times the Go and vector dense kernels at the trainers'
// and the MLP's shapes, rows x cols x k, on the paper workload's
// architectures (LSTM 32-16 over six features, MLP 64-32): the LSTM row
// products of both layers on one of two workers, one BPTT input-gradient
// matvec, an MLP row product, and the MLP forward pass over 32 samples
// at k = 6 (first layer) and k = 64 (second). ns/op is per call.
func BenchmarkGEMM(b *testing.B) {
	shapes := []struct {
		name           string
		rows, cols, kn int
		lda, ldb       int
		bias, relu     bool
	}{
		{"lstm-rows/64x39x192", 64, 39, 192, 192, 39, false, false},
		{"lstm-rows/32x49x192", 32, 49, 192, 192, 49, false, false},
		{"bptt/1x32x128", 1, 32, 128, 0, 39, false, false},
		{"mlp-rows/16x64x64", 16, 64, 64, 64, 64, false, false},
		{"mlp-forward/32x64x6", 32, 64, 6, 6, 64, true, true},
		{"mlp-forward/32x32x64", 32, 32, 64, 64, 32, true, true},
	}
	rng := rand.New(rand.NewSource(1))
	for _, k := range []struct {
		name string
		run  func(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, rows, cols, kn int, bias []float64, relu bool)
	}{{"go", gemmGo}, {"vector", gemmVector}} {
		for _, sh := range shapes {
			b.Run(k.name+"/"+sh.name, func(b *testing.B) {
				if k.name == "vector" && !vector {
					b.Skip("vector kernels off on this host")
				}
				a := make([]float64, (sh.rows-1)*sh.lda+sh.kn)
				w := make([]float64, sh.kn*sh.ldb)
				for _, v := range [][]float64{a, w} {
					for i := range v {
						v[i] = rng.NormFloat64()
					}
				}
				var bias []float64
				if sh.bias {
					bias = w[:sh.cols]
				}
				c := make([]float64, sh.rows*sh.cols)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k.run(c, sh.cols, a, sh.lda, w, sh.ldb, sh.rows, sh.cols, sh.kn, bias, sh.relu)
				}
			})
		}
	}
}
