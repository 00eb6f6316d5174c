package ml

import (
	"fmt"
	"math"
)

// TreeConfig tunes the CART classifier.
type TreeConfig struct {
	MaxDepth       int // default 8
	MinLeafSamples int // default 5
	Classes        int // default 2
}

func (c TreeConfig) withDefaults() TreeConfig {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 8
	}
	if c.MinLeafSamples <= 0 {
		c.MinLeafSamples = 5
	}
	if c.Classes <= 0 {
		c.Classes = 2
	}
	return c
}

// Tree is a CART decision-tree classifier with Gini impurity, the DT
// baseline monitor of Section IV-C4.
type Tree struct {
	cfg  TreeConfig
	root *treeNode
}

var _ Classifier = (*Tree)(nil)

type treeNode struct {
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
	proba     []float64 // leaf class distribution (nil for internal nodes)
}

// FitTree trains a CART tree. It rejects a NaN or infinite feature,
// which has no place in the sorted order a split scans.
func FitTree(X [][]float64, y []int, cfg TreeConfig) (*Tree, error) {
	cfg = cfg.withDefaults()
	if err := validateXY(X, y, cfg.Classes); err != nil {
		return nil, err
	}
	b, err := newTreeBuilder(X, y, cfg)
	if err != nil {
		return nil, err
	}
	counts := make([]int, cfg.Classes)
	for _, label := range y {
		counts[label]++
	}
	return &Tree{cfg: cfg, root: b.build(0, len(X), counts, 0)}, nil
}

// treeBuilder grows a tree over rows sorted once per feature. The rows
// of the node being built are order[f][lo:hi], sorted by feature f, for
// every f; a split stably partitions each of those ranges into the left
// child's rows, then the right child's, so every child range stays
// sorted without sorting again. The tree is the one a per-node sort
// builds, bit for bit: a split falls only between distinct values,
// where the class counts on either side do not depend on how ties are
// ordered, and the first best split wins, by feature, then boundary,
// ascending.
type treeBuilder struct {
	cfg         TreeConfig
	y           []int
	cols        [][]float64 // cols[f][i] is feature f of row i
	order       [][]int32   // order[f] holds the rows, sorted by cols[f]
	goesLeft    []bool      // by row: the split being applied sends it left
	spill       []int32     // partition scratch
	left, right []int       // class counts either side of a boundary
}

// newTreeBuilder copies X into columns, rejecting a non-finite feature,
// and sorts every column's rows.
func newTreeBuilder(X [][]float64, y []int, cfg TreeConfig) (*treeBuilder, error) {
	n, d := len(X), len(X[0])
	b := &treeBuilder{
		cfg:      cfg,
		y:        y,
		cols:     make([][]float64, d),
		order:    make([][]int32, d),
		goesLeft: make([]bool, n),
		spill:    make([]int32, n),
		left:     make([]int, cfg.Classes),
		right:    make([]int, cfg.Classes),
	}
	for f := range d {
		b.cols[f] = make([]float64, n)
	}
	for i, row := range X {
		for f, v := range row {
			if err := checkFeature(v, i, f); err != nil {
				return nil, err
			}
			b.cols[f][i] = v
		}
	}
	keys, spareKeys := make([]uint64, n), make([]uint64, n)
	spare := make([]int32, n)
	for f, col := range b.cols {
		b.order[f], spare = sortRows(col, keys, spareKeys, make([]int32, n), spare)
	}
	return b, nil
}

// sortRows orders the rows of col by value, ties by row, in a least
// significant digit first radix sort over keys whose unsigned order is
// the values' order: col is finite, and −0 sorts as +0. keys and
// spareKeys are scratch; rows and spare are two buffers of len(col)
// rows. It returns the sorted rows and the other buffer.
func sortRows(col []float64, keys, spareKeys []uint64, rows, spare []int32) (sorted, free []int32) {
	for i, v := range col {
		if v == 0 {
			v = 0
		}
		k := math.Float64bits(v)
		if k>>63 == 1 {
			k = ^k
		} else {
			k |= 1 << 63
		}
		keys[i], rows[i] = k, int32(i)
	}
	for shift := 0; shift < 64; shift += 8 {
		var start [256]int
		for _, k := range keys {
			start[k>>shift&0xff]++
		}
		if start[keys[0]>>shift&0xff] == len(keys) {
			continue // every key has this digit
		}
		sum := 0
		for d, c := range start {
			start[d], sum = sum, sum+c
		}
		for i, k := range keys {
			d := k >> shift & 0xff
			spareKeys[start[d]], spare[start[d]] = k, rows[i]
			start[d]++
		}
		keys, spareKeys = spareKeys, keys
		rows, spare = spare, rows
	}
	return rows, spare
}

// build grows the subtree over the rows in [lo, hi), whose class counts
// are counts.
func (b *treeBuilder) build(lo, hi int, counts []int, depth int) *treeNode {
	n := hi - lo
	node := &treeNode{}
	pure := false
	for _, c := range counts {
		if c == n {
			pure = true
		}
	}
	if depth >= b.cfg.MaxDepth || n < 2*b.cfg.MinLeafSamples || pure {
		node.proba = probaFromCounts(counts)
		return node
	}

	feature, threshold, gain := b.bestSplit(lo, hi, counts)
	if gain <= 1e-12 {
		node.proba = probaFromCounts(counts)
		return node
	}
	leftCounts := make([]int, b.cfg.Classes)
	nLeft := 0
	for _, i := range b.order[feature][lo:hi] {
		b.goesLeft[i] = b.cols[feature][i] <= threshold
		if b.goesLeft[i] {
			leftCounts[b.y[i]]++
			nLeft++
		}
	}
	if nLeft < b.cfg.MinLeafSamples || n-nLeft < b.cfg.MinLeafSamples {
		node.proba = probaFromCounts(counts)
		return node
	}
	for _, order := range b.order {
		b.partition(order[lo:hi])
	}
	rightCounts := make([]int, b.cfg.Classes)
	for c := range counts {
		rightCounts[c] = counts[c] - leftCounts[c]
	}
	node.feature = feature
	node.threshold = threshold
	node.left = b.build(lo, lo+nLeft, leftCounts, depth+1)
	node.right = b.build(lo+nLeft, hi, rightCounts, depth+1)
	return node
}

// bestSplit scans every feature's sorted rows in [lo, hi) for the split
// with the highest Gini gain.
func (b *treeBuilder) bestSplit(lo, hi int, counts []int) (feature int, threshold, gain float64) {
	n := hi - lo
	parent := giniCounts(counts, n)
	bestGain := 0.0
	bestFeature, bestThreshold := -1, 0.0
	y, left, right := b.y, b.left, b.right
	for f, order := range b.order {
		rows, col := order[lo:hi], b.cols[f]
		clear(left)
		copy(right, counts)
		nLeft, nRight := 0, n
		for k := 0; k < n-1; k++ {
			label := y[rows[k]]
			left[label]++
			right[label]--
			nLeft++
			nRight--
			v, next := col[rows[k]], col[rows[k+1]]
			if v == next {
				continue // cannot split between equal values
			}
			g := parent - (float64(nLeft)*giniCounts(left, nLeft)+
				float64(nRight)*giniCounts(right, nRight))/float64(n)
			if g > bestGain {
				bestGain = g
				bestFeature = f
				bestThreshold = (v + next) / 2
			}
		}
	}
	if bestFeature < 0 {
		return 0, 0, 0
	}
	return bestFeature, bestThreshold, bestGain
}

// partition stably moves the rows the split sends left to the front of
// rows.
func (b *treeBuilder) partition(rows []int32) {
	l, r := 0, 0
	for _, i := range rows {
		if b.goesLeft[i] {
			rows[l] = i
			l++
		} else {
			b.spill[r] = i
			r++
		}
	}
	copy(rows[l:], b.spill[:r])
}

func giniCounts(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := float64(c) / float64(n)
		g -= p * p
	}
	return g
}

func probaFromCounts(counts []int) []float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	out := make([]float64, len(counts))
	if total == 0 {
		for i := range out {
			out[i] = 1 / float64(len(counts))
		}
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(total)
	}
	return out
}

// PredictProba implements Classifier.
func (t *Tree) PredictProba(x []float64) []float64 {
	n := t.root
	for n.proba == nil {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	out := make([]float64, len(n.proba))
	copy(out, n.proba)
	return out
}

// Predict implements Classifier.
func (t *Tree) Predict(x []float64) int { return argmax(t.PredictProba(x)) }

// Classes implements Classifier.
func (t *Tree) Classes() int { return t.cfg.Classes }

// Depth returns the tree's depth (diagnostics).
func (t *Tree) Depth() int { return depthOf(t.root) }

func depthOf(n *treeNode) int {
	if n == nil || n.proba != nil {
		return 0
	}
	l, r := depthOf(n.left), depthOf(n.right)
	return 1 + int(math.Max(float64(l), float64(r)))
}

// NodeCount returns the number of nodes (diagnostics).
func (t *Tree) NodeCount() int { return countNodes(t.root) }

func countNodes(n *treeNode) int {
	if n == nil {
		return 0
	}
	return 1 + countNodes(n.left) + countNodes(n.right)
}

// String summarizes the tree.
func (t *Tree) String() string {
	return fmt.Sprintf("CART(depth=%d nodes=%d classes=%d)", t.Depth(), t.NodeCount(), t.cfg.Classes)
}
