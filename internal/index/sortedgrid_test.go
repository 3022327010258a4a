package index

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sortedGridCoord draws a coordinate from a mix of ordinary values, values
// on cell boundaries, and the extremes a cell key must survive: NaN, ±Inf
// and ±1e300 (whose cell numbers overflow int32).
func sortedGridCoord(rng *rand.Rand, cell float64) float64 {
	switch rng.Intn(12) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1 - 2*rng.Intn(2))
	case 2:
		return 1e300 * float64(1-2*rng.Intn(2))
	case 3:
		return cell * float64(rng.Intn(21)-10) // exactly on a cell edge
	default:
		return (rng.Float64() - 0.5) * 40 * cell
	}
}

// TestSortedGridMatchesScan pins QueryClosed to the closed-box predicate
// evaluated point by point, for boxes that are ordinary, zero-extent, edge-
// aligned, inverted, NaN-bounded and astronomically wide — and checks that
// no probe visits more points than the grid holds.
func TestSortedGridMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var g SortedGrid
	for round := 0; round < 200; round++ {
		cell := []float64{1, 7.5, 80, 1e-3}[round%4]
		n := rng.Intn(300)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i], ys[i] = sortedGridCoord(rng, cell), sortedGridCoord(rng, cell)
		}
		g.Build(cell, xs, ys)
		if g.Len() != n {
			t.Fatalf("Len = %d, want %d", g.Len(), n)
		}
		for q := 0; q < 50; q++ {
			var lo, hi [2]float64
			for d := 0; d < 2; d++ {
				switch rng.Intn(6) {
				case 0: // a point of the set, zero extent
					if n > 0 {
						k := rng.Intn(n)
						lo[d] = []float64{xs[k], ys[k]}[d]
						hi[d] = lo[d]
						continue
					}
					fallthrough
				case 1: // very wide
					lo[d], hi[d] = -1e300, 1e300
				case 2: // edges on cell boundaries
					lo[d] = cell * float64(rng.Intn(11)-5)
					hi[d] = lo[d] + cell*float64(rng.Intn(4))
				default:
					lo[d] = sortedGridCoord(rng, cell)
					hi[d] = lo[d] + rng.Float64()*5*cell
				}
			}
			var want []int32
			for i := range xs {
				if xs[i] >= lo[0] && xs[i] <= hi[0] && ys[i] >= lo[1] && ys[i] <= hi[1] {
					want = append(want, int32(i))
				}
			}
			got := g.QueryClosed(lo[0], hi[0], lo[1], hi[1], nil)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("round %d box x[%g,%g] y[%g,%g] cell %g: got %v, want %v",
					round, lo[0], hi[0], lo[1], hi[1], cell, got, want)
			}
			if g.steps > n {
				t.Fatalf("probe took %d steps over %d points", g.steps, n)
			}
		}
	}
}

// TestSortedGridRebuildZeroAlloc checks that rebuilding over roaming points
// reuses the slab.
func TestSortedGridRebuildZeroAlloc(t *testing.T) {
	const n = 500
	xs := make([]float64, n)
	ys := make([]float64, n)
	var g SortedGrid
	step := 0.0
	roam := func() {
		step++
		for i := range xs {
			xs[i] = float64(i)*3 + step*17
			ys[i] = float64(i%23)*5 - step*11
		}
		g.Build(10, xs, ys)
	}
	roam()
	var out []int32
	if allocs := testing.AllocsPerRun(20, func() {
		roam()
		out = g.QueryClosed(0, 400, -100, 100, out[:0])
	}); allocs != 0 {
		t.Errorf("rebuild+query allocates %.1f times, want 0", allocs)
	}
}
