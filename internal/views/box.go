package views

// The indexed delta arm. A crowd of interest-box subscriptions is itself a
// relation to be joined with the tick's changed rows (query–data duality):
// instead of running every box's kernel over every candidate row, the
// registry builds one point index per (class, attribute pair) over the
// drained candidates and probes it once per box. Membership bookkeeping,
// kills, id order and emission are the kernel arm's, so the two arms emit
// identical streams by construction: the probe's exact closed-box test is
// the same float comparison the box's kernel performs.

import (
	"math"
	"slices"

	"repro/internal/compile"
	"repro/internal/index"
	"repro/internal/schema"
	"repro/internal/sgl/ast"
	"repro/internal/sgl/token"
	"repro/internal/value"
)

// box is a recognised interest-box subscription: lo[d] <= attr d <= hi[d]
// over two numeric own-row attributes, ax < ay, with finite bounds.
type box struct {
	ax, ay int
	lo, hi [2]float64
	idx    *boxIndex
}

// contains is the box predicate on one point — the conjunction the kernel
// evaluates, reordered (closed float comparisons commute under &&).
func (b *box) contains(x, y float64) bool {
	return x >= b.lo[0] && x <= b.hi[0] && y >= b.lo[1] && y <= b.hi[1]
}

// recogniseBox reports the canonical predicate as a box when it is a
// conjunction of closed bounds `a >= c` / `a <= c` (either operand order,
// c a finite, possibly negated, constant) that bound exactly two numeric
// own-row attributes on both sides — the shape InterestPred emits. Repeated
// bounds on one side combine to the tightest one, which for finite
// constants is the same predicate. Every other shape returns nil and stays
// on kernels.
func recogniseBox(cls *schema.Class, pred ast.Expr, consts []float64) *box {
	var attrs [2]int
	var lo, hi [2]float64
	var hasLo, hasHi [2]bool
	n := 0
	isConst := func(e ast.Expr) bool { _, ok := constValue(e, consts); return ok }
	for _, c := range compile.SplitAnd(pred) {
		bd, ok := compile.ReadBound(c, ownAttr, isConst)
		if !ok {
			return nil
		}
		lower, ok := bd.Range(cls)
		if !ok {
			return nil
		}
		v, _ := constValue(bd.Other, consts)
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return nil
		}
		d := slices.Index(attrs[:n], bd.AttrIdx)
		if d < 0 {
			if n == len(attrs) {
				return nil
			}
			d, attrs[n] = n, bd.AttrIdx
			n++
		}
		if lower {
			if !hasLo[d] || v > lo[d] {
				lo[d] = v
			}
			hasLo[d] = true
		} else {
			if !hasHi[d] || v < hi[d] {
				hi[d] = v
			}
			hasHi[d] = true
		}
	}
	if n != 2 || !hasLo[0] || !hasHi[0] || !hasLo[1] || !hasHi[1] {
		return nil
	}
	if attrs[0] > attrs[1] {
		attrs[0], attrs[1] = attrs[1], attrs[0]
		lo[0], lo[1] = lo[1], lo[0]
		hi[0], hi[1] = hi[1], hi[0]
	}
	return &box{ax: attrs[0], ay: attrs[1], lo: lo, hi: hi}
}

// ownAttr is the state index of an own-row attribute read, or -1.
func ownAttr(e ast.Expr) int {
	if id, ok := e.(*ast.Ident); ok && id.Bind.Kind == ast.BindStateAttr {
		return id.Bind.AttrIdx
	}
	return -1
}

// constValue evaluates a canonicalized numeric constant — a frame-slot read,
// possibly negated (the parser reads "-40" as unary minus on 40, and float
// negation is exact, so the kernel computes the same value).
func constValue(e ast.Expr, consts []float64) (float64, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		if e.Bind.Kind == ast.BindLocal {
			return consts[e.Bind.Slot], true
		}
	case *ast.UnaryExpr:
		if e.Op == token.MINUS {
			v, ok := constValue(e.X, consts)
			return -v, ok
		}
	}
	return 0, false
}

// boxIndex is the point index shared by every box subscription of one
// class over one attribute pair: built at most once per Apply, over that
// Apply's drained candidates.
type boxIndex struct {
	ax, ay int
	grid   index.SortedGrid
	built  bool

	// cell is the grid's cell size, 0 while it needs recomputing from the
	// pair's boxes (after a Subscribe or Unsubscribe touched them).
	cell    float64
	extents []float64
}

// attachBox joins a new box subscription to its attribute pair's index.
func (cs *classState) attachBox(b *box) {
	for _, bi := range cs.boxIdx {
		if bi.ax == b.ax && bi.ay == b.ay {
			b.idx = bi
			bi.cell = 0
			return
		}
	}
	b.idx = &boxIndex{ax: b.ax, ay: b.ay}
	cs.boxIdx = append(cs.boxIdx, b.idx)
}

// cellSize returns the index's cell size: the median extent of the pair's
// boxes, so a typical probe touches a 2×2 block of cells.
func (cs *classState) cellSize(bi *boxIndex) float64 {
	if bi.cell > 0 {
		return bi.cell
	}
	bi.extents = bi.extents[:0]
	for _, s := range cs.subs {
		if b := s.box; b != nil && b.idx == bi {
			if e := max(b.hi[0]-b.lo[0], b.hi[1]-b.lo[1]); e > 0 && !math.IsInf(e, 0) {
				bi.extents = append(bi.extents, e)
			}
		}
	}
	bi.cell = 1
	if len(bi.extents) > 0 {
		slices.Sort(bi.extents)
		bi.cell = bi.extents[len(bi.extents)/2]
	}
	return bi.cell
}

// buildCandByID sorts the candidate ids (with their candidate positions)
// for the removal check's lookups.
func (cs *classState) buildCandByID() {
	if cs.candByIDBuilt {
		return
	}
	cs.candByIDBuilt = true
	cs.candByID = cs.candByID[:0]
	for i, id := range cs.candIDs {
		cs.candByID = append(cs.candByID, idRow{id, int32(i)})
	}
	sortPairs(cs.candByID)
}

// candIndex returns the candidate position of id, or -1.
func (cs *classState) candIndex(id value.ID) int {
	if i, ok := slices.BinarySearchFunc(cs.candByID, id, cmpPairID); ok {
		return int(cs.candByID[i].row)
	}
	return -1
}

// applyDeltaBox is applyDelta for a box subscription: one index probe finds
// the passing candidates (adds and updates), and only the box's own
// members are looked up among the candidates for removals.
func (r *Registry) applyDeltaBox(s *Sub, cs *classState) {
	b := s.box
	d := &s.d
	r.addPairs = r.addPairs[:0]
	r.updPairs = r.updPairs[:0]
	if k := len(cs.rows); k > 0 {
		cs.buildLanes()
		xs, ys := cs.lanes[b.ax][:k], cs.lanes[b.ay][:k]
		bi := b.idx
		if !bi.built {
			bi.grid.Build(cs.cellSize(bi), xs, ys)
			bi.built = true
		}
		r.hits = bi.grid.QueryClosed(b.lo[0], b.hi[0], b.lo[1], b.hi[1], r.hits[:0])
		r.indexProbes++
		r.indexHits += int64(len(r.hits))
		for _, i := range r.hits {
			id := cs.candIDs[i]
			if _, in := slices.BinarySearch(s.members, id); in {
				r.updPairs = append(r.updPairs, idRow{id, cs.rows[i]})
			} else {
				r.addPairs = append(r.addPairs, idRow{id, cs.rows[i]})
			}
		}
		if len(s.members) > 0 {
			cs.buildCandByID()
			for _, id := range s.members {
				if i := cs.candIndex(id); i >= 0 && !b.contains(xs[i], ys[i]) {
					d.RemIDs = append(d.RemIDs, id)
				}
			}
		}
	}
	r.finishDelta(s, cs)
}
