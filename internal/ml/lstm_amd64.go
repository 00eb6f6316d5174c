package ml

import "math"

// The AVX2 path of LSTMBatch.forwardLayer. It holds four samples per YMM
// register and computes, lane by lane, exactly what the Go kernel
// computes:
//
//   - lstmGates4 accumulates each gate pre-activation in the Go tile's
//     order (bias, then the input terms, then the hidden terms) with a
//     VMULPD and a VADDPD per term, so every product is rounded as the Go
//     kernel rounds it. The four gates of a unit share each input and
//     hidden-state load.
//   - lstmCells4 runs sigmoid and math.Tanh four lanes at a time on a
//     vector port of exp_amd64.s's FMA path: the same constants, the same
//     operations in the same order, fused exactly where the scalar
//     assembly fuses, and VCVTPD2DQ rounding like its CVTSD2SL. The tanh
//     port evaluates all three of math.tanh's branches and keeps each
//     lane's own, including ±0 returning itself. The cell update f*c + i*g
//     and the output o*tanh(c) are separate multiplies and adds.
//
// A unit with a non-finite gate pre-activation in any of its four lanes,
// or a sigmoid whose exp argument leaves [-708, 709] (there the scalar
// Exp takes its overflow, denormal or special-value branches), goes to
// lstmCell, the Go kernel's own code. The cell state needs no check: with
// every gate in range it stays finite (see lstmCells4). So the two
// kernels agree bit for bit on every input; the differential tests hold
// them to it.

// lstmGates4 writes one four-lane tile's gate pre-activations for one
// timestep into the first four vectors of each unit's record: rec holds
// units records of lstmCacheWidth vectors of four lanes, x the tile's
// inputs (in vectors), h its hidden state (units vectors), and w the
// layer's weights as gateRow lays them out.
//
//go:noescape
func lstmGates4(rec, x, h, w *float64, in, units int)

// lstmCells4 runs the cell update of up to units consecutive units of a
// tile in place: each record's pre-activations become the gate
// activations i, f, g, o, its cell state c becomes the new one, and its
// sixth vector tanh(c); h receives o*tanh(c). It stops before the first
// unit it cannot run exactly, leaving that unit's record and h
// untouched, and returns the number of units it ran. The cell states it
// reads are finite: with every gate in range, |c| grows by at most 1 per
// step, and a NaN c would have made the lane's h, and so every
// pre-activation of this step, NaN, which sends every unit to lstmCell
// instead.
//
//go:noescape
func lstmCells4(rec, h *float64, units int) int

// lstmConsts are the vector kernel's constants, each repeated across the
// four lanes of a YMM operand. The assembly reads lstmK's fields at the
// offsets go_asm.h generates.
type lstmConsts struct {
	// exp_amd64.s's reduction and Taylor coefficients, and 2^52+1023,
	// which puts an integral exponent e plus the bias in the low mantissa
	// bits so that a 52-bit shift builds 2^e.
	log2e, ln2U, ln2L, sixteenth             [4]float64
	exp8, exp7, exp6, exp5, exp4, exp3, half [4]float64
	one, two, expBias                        [4]float64
	negZero, absMask, maxFinite              [4]float64 // sign bit, magnitude bits, largest finite
	sigLo, sigHi                             [4]float64 // sigmoid's in-range pre-activations
	tanhP0, tanhP1, tanhP2                   [4]float64 // math.tanh's rational approximation
	tanhQ0, tanhQ1, tanhQ2                   [4]float64
	tanhMid, tanhSat, tanhClamp              [4]float64 // its branch bounds, and a safe exp argument
}

var lstmK = lstmConsts{
	log2e:     splat4(1.4426950408889634073599246810018920),
	ln2U:      splat4(0.69314718055966295651160180568695068359375),
	ln2L:      splat4(0.28235290563031577122588448175013436025525412068e-12),
	sixteenth: splat4(0.0625),
	exp8:      splat4(2.4801587301587301587e-5),
	exp7:      splat4(1.9841269841269841270e-4),
	exp6:      splat4(1.3888888888888888889e-3),
	exp5:      splat4(8.3333333333333333333e-3),
	exp4:      splat4(4.1666666666666666667e-2),
	exp3:      splat4(1.6666666666666666667e-1),
	half:      splat4(0.5),
	one:       splat4(1),
	two:       splat4(2),
	expBias:   splat4(1<<52 + 1023),
	negZero:   splat4(math.Copysign(0, -1)),
	absMask:   splat4(math.Float64frombits(1<<63 - 1)),
	maxFinite: splat4(math.MaxFloat64),
	// sigmoid(v) = 1/(1+Exp(-v)) stays vector for -v in [-708, 709].
	sigLo:  splat4(-709),
	sigHi:  splat4(708),
	tanhP0: splat4(-9.64399179425052238628e-1),
	tanhP1: splat4(-9.92877231001918586564e1),
	tanhP2: splat4(-1.61468768441708447952e3),
	tanhQ0: splat4(1.12811678491632931402e2),
	tanhQ1: splat4(2.23548839060100448583e3),
	tanhQ2: splat4(4.84406305325125486048e3),
	// math.tanh's branches: |x| > 0.5*MAXLOG saturates, |x| >= 0.625
	// takes Exp(2|x|). Lanes outside the middle branch discard their exp,
	// so its argument is clamped to stay in range.
	tanhMid:   splat4(0.625),
	tanhSat:   splat4(0.5 * 8.8029691931113054295988e+01),
	tanhClamp: splat4(100),
}

func splat4(v float64) [4]float64 { return [4]float64{v, v, v, v} }

// forwardLayerVector is forwardLayer on the AVX2 kernels: one four-lane
// tile of samples at a time, padded with zero lanes whose results are
// discarded, through all t timesteps.
//
//fleetvet:noalloc
func (b *LSTMBatch) forwardLayerVector(l *lstmLayer, cur, nxt []float64, n, t int, cache []float64) {
	const cw = lstmCacheWidth
	u, in := l.units, l.in
	xT, hT, rec := b.xT[:in*4], b.hT[:u*4], b.rec[:u*cw*4]
	_ = l.w[4*u*(in+u+1)-1]
	for s0 := 0; s0 < n; s0 += 4 {
		lanes := min(4, n-s0)
		clear(xT)
		clear(hT)
		for uu := 0; uu < u; uu++ {
			clear(rec[(uu*cw+4)*4:][:4]) // the cell state
		}
		for tt := 0; tt < t; tt++ {
			for lane := 0; lane < lanes; lane++ {
				for j, v := range cur[((s0+lane)*t+tt)*in:][:in] {
					xT[j*4+lane] = v
				}
			}
			lstmGates4(&rec[0], &xT[0], &hT[0], &l.w[0], in, u)
			for uu := 0; uu < u; uu++ {
				uu += lstmCells4(&rec[uu*cw*4], &hT[uu*4], u-uu)
				if uu < u {
					lstmCellsScalar(rec[uu*cw*4:][:cw*4], hT[uu*4:][:4])
				}
			}
			for lane := 0; lane < lanes; lane++ {
				s := s0 + lane
				out := nxt[(s*t+tt)*u:][:u]
				for uu := range out {
					out[uu] = hT[uu*4+lane]
				}
				if cache != nil {
					st := cache[(s*t+tt)*u*cw:][:u*cw]
					for k := range st {
						st[k] = rec[k*4+lane]
					}
				}
			}
		}
	}
}

// lstmCellsScalar is lstmCells4 for one unit on the Go kernel's code,
// lane by lane.
func lstmCellsScalar(rec, h []float64) {
	for lane := 0; lane < 4; lane++ {
		i, f, g, o, c, tc, hv := lstmCell(rec[lane], rec[4+lane], rec[8+lane], rec[12+lane], rec[16+lane])
		rec[lane], rec[4+lane], rec[8+lane], rec[12+lane], rec[16+lane], rec[20+lane] = i, f, g, o, c, tc
		h[lane] = hv
	}
}
