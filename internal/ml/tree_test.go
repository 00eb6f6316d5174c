package ml

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// tiedRows draws n rows of six features full of ties — two integer
// columns, two few-valued ones (one holds both signed zeros), one on a
// half-unit grid and one continuous — with about one row in ten a
// duplicate of an earlier row's features. The labels depend on the
// features with one in five drawn at random.
func tiedRows(n, classes int, rng *rand.Rand) (X [][]float64, y []int) {
	few := []float64{-1, math.Copysign(0, -1), 0, 2.5}
	X = make([][]float64, n)
	y = make([]int, n)
	for i := range X {
		if i > 0 && rng.Intn(10) == 0 {
			X[i] = append([]float64(nil), X[rng.Intn(i)]...)
		} else {
			X[i] = []float64{
				float64(rng.Intn(20)),
				math.Round(rng.NormFloat64() * 3),
				few[rng.Intn(len(few))],
				float64(rng.Intn(2)),
				math.Round(rng.NormFloat64()*4) / 2,
				rng.NormFloat64(),
			}
		}
		x := X[i]
		score := x[0]/4 + x[1] + 2*x[2] - x[3] + x[4] + x[5]
		y[i] = int(math.Abs(score)) % classes
		if rng.Intn(5) == 0 {
			y[i] = rng.Intn(classes)
		}
	}
	return X, y
}

// sameTree reports the first node where a and b differ in shape,
// feature, threshold bits or leaf-probability bits.
func sameTree(path string, a, b *treeNode) error {
	if (a.proba == nil) != (b.proba == nil) {
		return fmt.Errorf("node %q: leaf %v vs %v", path, a.proba != nil, b.proba != nil)
	}
	if a.proba != nil {
		for c := range a.proba {
			if math.Float64bits(a.proba[c]) != math.Float64bits(b.proba[c]) {
				return fmt.Errorf("node %q: leaf probabilities %v vs %v", path, a.proba, b.proba)
			}
		}
		return nil
	}
	if a.feature != b.feature || math.Float64bits(a.threshold) != math.Float64bits(b.threshold) {
		return fmt.Errorf("node %q: split x[%d] <= %v vs x[%d] <= %v", path, a.feature, a.threshold, b.feature, b.threshold)
	}
	if err := sameTree(path+"L", a.left, b.left); err != nil {
		return err
	}
	return sameTree(path+"R", a.right, b.right)
}

// TestFitTreeMatchesPerNodeSort holds the presorted builder to the
// per-node sort it replaced, node for node, on tied data with 2 and 3
// classes over a grid of depths and leaf sizes.
func TestFitTreeMatchesPerNodeSort(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for _, classes := range []int{2, 3} {
		for _, n := range []int{40, 700} {
			X, y := tiedRows(n, classes, rng)
			for _, depth := range []int{1, 3, 8, 30} {
				for _, leaf := range []int{1, 2, 5, 17} {
					cfg := TreeConfig{MaxDepth: depth, MinLeafSamples: leaf, Classes: classes}
					got, err := FitTree(X, y, cfg)
					if err != nil {
						t.Fatal(err)
					}
					want := fitTreePerNodeSort(X, y, cfg)
					if err := sameTree("", got.root, want.root); err != nil {
						t.Errorf("%d classes, %d rows, %+v: %v", classes, n, cfg, err)
					}
				}
			}
		}
	}
	// Rows without features leave a single leaf.
	X, y := [][]float64{{}, {}, {}, {}}, []int{0, 1, 1, 1}
	got, err := FitTree(X, y, TreeConfig{MinLeafSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sameTree("", got.root, fitTreePerNodeSort(X, y, TreeConfig{MinLeafSamples: 1}).root); err != nil {
		t.Error(err)
	}
}

// BenchmarkFitTree fits the DT baseline's shape, 10,000 tied rows of six
// features: the per-node sort against the presorted builder.
func BenchmarkFitTree(b *testing.B) {
	X, y := tiedRows(10000, 2, rand.New(rand.NewSource(1)))
	b.Run("oracle", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			fitTreePerNodeSort(X, y, TreeConfig{})
		}
	})
	b.Run("presorted", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := FitTree(X, y, TreeConfig{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
