//go:build !amd64

package ml

// vector is false off amd64: the Go kernels are the only kernels.
const vector = false

// cpuAVX2 reports false: there is no AVX2 off amd64.
func cpuAVX2() bool { return false }

// forwardLayerVector is never called off amd64.
func (b *LSTMBatch) forwardLayerVector(l *lstmLayer, cur, nxt []float64, n, t int, cache []float64) {
	panic("ml: no vector LSTM kernel on this platform")
}

// gemmVector is never called off amd64.
func gemmVector(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, rows, cols, kn int, bias []float64, relu bool) {
	panic("ml: no vector dense kernel on this platform")
}
