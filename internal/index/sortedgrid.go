package index

import (
	"math"
	"slices"
)

// SortedGrid is a uniform grid over 2-D points stored as one array sorted
// by cell, with no cell table: a probe binary-searches its way from cell
// run to cell run. It suits a point set rebuilt from scratch on every use —
// the candidate rows of one tick's changefeed, say — because a rebuild is
// one fill and one sort of a retained slab, so it allocates nothing once
// the slab has grown, however the points roam between cells.
//
// Cell coordinates are clamped into ±2^30 before they become keys, which
// keeps the point→cell map monotone for every float input (±Inf, ±1e300
// and NaN included; NaN lands in the lowest cell). Monotonicity is what
// makes the cell filter sound: a point inside a closed box always lies in
// a cell inside the box's cell range, so the exact coordinate test that
// follows is the only filter that rejects anything.
type SortedGrid struct {
	cell float64
	pts  []gridPoint

	// steps counts the point visits and cell-run hops of the last query.
	steps int
}

type gridPoint struct {
	key  uint64 // packed (cell y, cell x), biased to unsigned
	x, y float64
	i    int32
}

const cellClamp = 1 << 30

// cellCoord is the clamped cell coordinate of v; NaN maps to the lowest
// cell.
func cellCoord(v, cell float64) int64 {
	f := math.Floor(v / cell)
	if !(f > -cellClamp) {
		return -cellClamp
	}
	if f > cellClamp {
		return cellClamp
	}
	return int64(f)
}

// cellKey packs (cx, cy) so that keys order by cy, then cx.
func cellKey(cx, cy int64) uint64 {
	return uint64(cy+1<<31)<<32 | uint64(cx+1<<31)
}

// Build indexes point i = (xs[i], ys[i]) for every i < len(xs) in square
// cells of the given size, reusing the grid's slab. cell must be positive
// and finite.
func (g *SortedGrid) Build(cell float64, xs, ys []float64) {
	if !(cell > 0) || math.IsInf(cell, 1) {
		panic("index: sorted grid cell size must be positive and finite")
	}
	g.cell = cell
	g.pts = g.pts[:0]
	for i, x := range xs {
		y := ys[i]
		g.pts = append(g.pts, gridPoint{
			key: cellKey(cellCoord(x, cell), cellCoord(y, cell)),
			x:   x, y: y, i: int32(i),
		})
	}
	slices.SortFunc(g.pts, func(a, b gridPoint) int {
		switch {
		case a.key < b.key:
			return -1
		case a.key > b.key:
			return 1
		}
		return int(a.i - b.i)
	})
}

// Len returns the number of indexed points.
func (g *SortedGrid) Len() int { return len(g.pts) }

// QueryClosed appends the indexes of the points inside the closed box
// [lo0,hi0]×[lo1,hi1] — exactly the points for which
// x >= lo0 && x <= hi0 && y >= lo1 && y <= hi1 holds — in cell order. A
// probe visits each point at most once, whatever the box's extent: every
// step either tests a point or hops forward past a run of cells outside the
// box's columns.
func (g *SortedGrid) QueryClosed(lo0, hi0, lo1, hi1 float64, out []int32) []int32 {
	g.steps = 0
	if !(lo0 <= hi0 && lo1 <= hi1) {
		return out // empty or NaN-bounded: no point satisfies every bound
	}
	cx0, cx1 := cellCoord(lo0, g.cell), cellCoord(hi0, g.cell)
	cy1 := cellCoord(hi1, g.cell)
	pos := g.seek(0, cellKey(cx0, cellCoord(lo1, g.cell)))
	for pos < len(g.pts) {
		p := &g.pts[pos]
		cy := int64(p.key>>32) - 1<<31
		if cy > cy1 {
			break
		}
		g.steps++
		switch cx := int64(uint32(p.key)) - 1<<31; {
		case cx < cx0:
			pos = g.seek(pos+1, cellKey(cx0, cy))
		case cx > cx1:
			pos = g.seek(pos+1, cellKey(cx0, cy+1))
		default:
			if p.x >= lo0 && p.x <= hi0 && p.y >= lo1 && p.y <= hi1 {
				out = append(out, p.i)
			}
			pos++
		}
	}
	return out
}

// seek returns the first position at or after from whose key is >= key.
func (g *SortedGrid) seek(from int, key uint64) int {
	lo, hi := from, len(g.pts)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if g.pts[m].key < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}
