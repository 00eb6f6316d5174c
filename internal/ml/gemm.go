package ml

// gemm writes c[r·ldc+j] = init_j + Σ a[r·lda+k]·b[k·ldb+j] over k < kn,
// ascending, for r < rows and j < cols, where init_j is bias[j], or +0
// for a nil bias; with relu set, each output then passes through relu0.
// b is k-major: row k is contiguous over the outputs j. a is read one
// element at a time, so its rows may have any stride. Every dense
// product in the package is one such call: the MLP forward pass
// (forwardBatchDense), the trainers' per-sample input gradients, and
// their row phases, whose operands are laid out so that k runs in the
// per-sample accumulation order.
//
// Where vector holds it runs the AVX2 kernel (gemmVector), which keeps
// four outputs per YMM register and adds each term as a multiply and
// an add, so every output is the same sum in the same order as
// gemmGo's; everywhere else gemmGo, which is also the vector kernel's
// test oracle.
//
//fleetvet:noalloc
func gemm(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, rows, cols, kn int, bias []float64, relu bool) {
	if vector {
		gemmVector(c, ldc, a, lda, b, ldb, rows, cols, kn, bias, relu)
		return
	}
	gemmGo(c, ldc, a, lda, b, ldb, rows, cols, kn, bias, relu)
}

// gemmGo is gemm in Go. It sums four rows of one output column at a
// time (dotRows4), sharing each load of b across the four rows, and the
// last rows four columns at a time (dotCols4), sharing each load of a.
// Reading b down a column bounds-checks one element per term, where a
// four-column slice of a row checks twice, so the row tiles are the
// faster shape wherever there are four rows. Each product is converted
// to float64 before it is added, which the Go spec says forbids fusing
// the two, so the kernel rounds like the vector kernel on every
// architecture.
//
//fleetvet:noalloc
func gemmGo(c []float64, ldc int, a []float64, lda int, b []float64, ldb int, rows, cols, kn int, bias []float64, relu bool) {
	var start [4]float64
	r := 0
	for ; r+4 <= rows; r += 4 {
		a0, a1, a2, a3 := a[r*lda:][:kn], a[(r+1)*lda:][:kn], a[(r+2)*lda:][:kn], a[(r+3)*lda:][:kn]
		c0, c1, c2, c3 := c[r*ldc:][:cols], c[(r+1)*ldc:][:cols], c[(r+2)*ldc:][:cols], c[(r+3)*ldc:][:cols]
		for j := range c0 {
			if bias != nil {
				start[0] = bias[j]
			}
			s0, s1, s2, s3 := dotRows4(a0, a1, a2, a3, b, j, ldb, start[0])
			if relu {
				s0, s1, s2, s3 = relu0(s0), relu0(s1), relu0(s2), relu0(s3)
			}
			c0[j], c1[j], c2[j], c3[j] = s0, s1, s2, s3
		}
	}
	for ; r < rows; r++ {
		ar, cr := a[r*lda:][:kn], c[r*ldc:][:cols]
		for j := 0; j < cols; j += 4 {
			w := min(4, cols-j)
			if bias != nil {
				copy(start[:w], bias[j:])
			}
			out := cr[j : j+w]
			if w == 4 {
				out[0], out[1], out[2], out[3] = dotCols4(ar, b, j, ldb, start[0], start[1], start[2], start[3])
			} else {
				for i := range out {
					out[i] = dotCols1(ar, b, j+i, ldb, start[i])
				}
			}
			if relu {
				for i, v := range out {
					out[i] = relu0(v)
				}
			}
		}
	}
}

// dotRows4 returns s + Σ a_i[k]·b[j+k·ldb] for the four rows a_i, k
// ascending. It and dotCols4 are not inlined: in gemmGo's body their
// loops' operands would not all fit in registers.
//
//go:noinline
//fleetvet:noalloc
func dotRows4(a0, a1, a2, a3, b []float64, j, ldb int, s float64) (s0, s1, s2, s3 float64) {
	a1, a2, a3 = a1[:len(a0)], a2[:len(a0)], a3[:len(a0)]
	s0, s1, s2, s3 = s, s, s, s
	p := j
	for k, x := range a0 {
		y := b[p]
		s0 += float64(x * y)
		s1 += float64(a1[k] * y)
		s2 += float64(a2[k] * y)
		s3 += float64(a3[k] * y)
		p += ldb
	}
	return s0, s1, s2, s3
}

// dotCols4 returns s_i + Σ a[k]·b[j+k·ldb+i] for i < 4, k ascending.
//
//go:noinline
//fleetvet:noalloc
func dotCols4(a, b []float64, j, ldb int, s0, s1, s2, s3 float64) (float64, float64, float64, float64) {
	p := j
	for _, x := range a {
		bk := b[p : p+4 : p+4]
		s0 += float64(x * bk[0])
		s1 += float64(x * bk[1])
		s2 += float64(x * bk[2])
		s3 += float64(x * bk[3])
		p += ldb
	}
	return s0, s1, s2, s3
}

// dotCols1 returns s + Σ a[k]·b[j+k·ldb], k ascending.
//
//fleetvet:noalloc
func dotCols1(a, b []float64, j, ldb int, s float64) float64 {
	p := j
	for _, x := range a {
		s += float64(x * b[p])
		p += ldb
	}
	return s
}

// relu0 is max(v, 0) by a v < 0 branch, so -0 and NaN pass through
// unchanged, as in the per-sample ReLU.
func relu0(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}
