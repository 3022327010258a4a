// Package pathfind provides grid-based A* pathfinding and an update
// component that owns waypoint attributes — the "AI planning" update
// subsystem of §2.2: scripts emit a goal intention as effects, and the
// planner (not the script) decides the concrete next position.
package pathfind

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/value"
)

// Grid is a walkability grid: true cells are blocked.
type Grid struct {
	W, H    int
	blocked []bool
}

// NewGrid returns an all-walkable grid.
func NewGrid(w, h int) *Grid {
	return &Grid{W: w, H: h, blocked: make([]bool, w*h)}
}

// Block marks a cell unwalkable.
func (g *Grid) Block(x, y int) {
	if g.in(x, y) {
		g.blocked[y*g.W+x] = true
	}
}

// BlockRect blocks a rectangle of cells (inclusive).
func (g *Grid) BlockRect(x0, y0, x1, y1 int) {
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			g.Block(x, y)
		}
	}
}

// Walkable reports whether a cell is inside the grid and unblocked.
func (g *Grid) Walkable(x, y int) bool { return g.in(x, y) && !g.blocked[y*g.W+x] }

func (g *Grid) in(x, y int) bool { return x >= 0 && y >= 0 && x < g.W && y < g.H }

// Point is a grid cell.
type Point struct{ X, Y int }

type pqItem struct {
	p    Point
	f    float64
	g    float64
	idx  int
	open bool
}

type pq []*pqItem

func (q pq) Len() int           { return len(q) }
func (q pq) Less(i, j int) bool { return q[i].f < q[j].f }
func (q pq) Swap(i, j int)      { q[i], q[j] = q[j], q[i]; q[i].idx, q[j].idx = i, j }
func (q *pq) Push(x any)        { it := x.(*pqItem); it.idx = len(*q); *q = append(*q, it) }
func (q *pq) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

// FindPath runs A* with octile distance over 4-connected moves. It returns
// the path including start and goal, or nil when unreachable.
func (g *Grid) FindPath(start, goal Point) []Point {
	if !g.Walkable(start.X, start.Y) || !g.Walkable(goal.X, goal.Y) {
		return nil
	}
	if start == goal {
		return []Point{start}
	}
	h := func(p Point) float64 {
		return math.Abs(float64(p.X-goal.X)) + math.Abs(float64(p.Y-goal.Y))
	}
	items := make(map[Point]*pqItem)
	came := make(map[Point]Point)
	open := &pq{}
	si := &pqItem{p: start, f: h(start), open: true}
	items[start] = si
	heap.Push(open, si)
	closed := make(map[Point]bool)
	dirs := [4]Point{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
	for open.Len() > 0 {
		cur := heap.Pop(open).(*pqItem)
		cur.open = false
		if cur.p == goal {
			return rebuild(came, goal, start)
		}
		closed[cur.p] = true
		for _, d := range dirs {
			np := Point{cur.p.X + d.X, cur.p.Y + d.Y}
			if !g.Walkable(np.X, np.Y) || closed[np] {
				continue
			}
			ng := cur.g + 1
			it, seen := items[np]
			if !seen {
				it = &pqItem{p: np, g: ng, f: ng + h(np), open: true}
				items[np] = it
				came[np] = cur.p
				heap.Push(open, it)
			} else if ng < it.g && it.open {
				it.g = ng
				it.f = ng + h(np)
				came[np] = cur.p
				heap.Fix(open, it.idx)
			}
		}
	}
	return nil
}

func rebuild(came map[Point]Point, goal, start Point) []Point {
	var rev []Point
	for p := goal; ; {
		rev = append(rev, p)
		if p == start {
			break
		}
		p = came[p]
	}
	out := make([]Point, len(rev))
	for i, p := range rev {
		out[len(rev)-1-i] = p
	}
	return out
}

// Config wires the planner component to a class: scripts emit goal
// coordinates as effects; the planner owns the position attributes and
// advances each object one walkable step per tick along an A* path.
type Config struct {
	Class              string
	XAttr, YAttr       string // owned position attributes (`by pathfind`)
	GoalXEff, GoalYEff string // effect attributes carrying the goal intention
	Grid               *Grid
}

// Planner implements engine.UpdateComponent.
type Planner struct {
	cfg Config
	// Plans counts A* invocations (cache misses), observable in tests.
	Plans int64
	cache map[value.ID][]Point
	goals map[value.ID]Point
}

// New returns an A* planner component.
func New(cfg Config) *Planner {
	return &Planner{cfg: cfg, cache: make(map[value.ID][]Point), goals: make(map[value.ID]Point)}
}

// Name implements engine.UpdateComponent.
func (p *Planner) Name() string { return "pathfind" }

// Update implements engine.UpdateComponent. Objects are visited in
// ascending physical row order; the plan cache stays keyed by object id.
func (p *Planner) Update(ctx *engine.UpdateCtx) error {
	cfg := p.cfg
	var h [4]engine.AttrHandle
	for i, attr := range [4]string{cfg.XAttr, cfg.YAttr, cfg.GoalXEff, cfg.GoalYEff} {
		var err error
		if h[i], err = ctx.Attr(cfg.Class, attr); err != nil {
			return fmt.Errorf("pathfind: %w", err)
		}
	}
	hx, hy, hgx, hgy := h[0], h[1], h[2], h[3]
	for row, live := range ctx.Live(hx) {
		if !live {
			continue
		}
		id := ctx.IDAt(hx, row)
		cur := Point{int(ctx.StateAt(hx, row).AsNumber()), int(ctx.StateAt(hy, row).AsNumber())}

		gx, okx := ctx.EffectAt(hgx, row)
		gy, oky := ctx.EffectAt(hgy, row)
		if okx && oky {
			goal := Point{int(gx.AsNumber()), int(gy.AsNumber())}
			if p.goals[id] != goal || len(p.cache[id]) == 0 {
				p.goals[id] = goal
				p.cache[id] = cfg.Grid.FindPath(cur, goal)
				p.Plans++
			}
		}
		path := p.cache[id]
		// Advance one step: find current position in path, move to next.
		next := cur
		for i, pt := range path {
			if pt == cur && i+1 < len(path) {
				next = path[i+1]
				break
			}
		}
		if next == cur && len(path) > 0 && path[0] != cur {
			// Drifted off the plan (e.g. physics separation); replan next
			// time a goal arrives.
			delete(p.cache, id)
		}
		if err := ctx.StageAt(hx, row, value.Num(float64(next.X))); err != nil {
			return err
		}
		if err := ctx.StageAt(hy, row, value.Num(float64(next.Y))); err != nil {
			return err
		}
	}
	return nil
}
