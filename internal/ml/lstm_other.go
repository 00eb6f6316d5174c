//go:build !amd64

package ml

// lstmVector is false off amd64: the Go kernel is the only LSTM kernel.
const lstmVector = false

// cpuAVX2 reports false: there is no AVX2 off amd64.
func cpuAVX2() bool { return false }

// forwardLayerVector is never called off amd64.
func (b *LSTMBatch) forwardLayerVector(l *lstmLayer, cur, nxt []float64, n, t int, cache []float64) {
	panic("ml: no vector LSTM kernel on this platform")
}
