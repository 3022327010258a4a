// Package physics is the dedicated physics update component of §2.2: a
// non-scripted subsystem that owns position attributes, integrates the
// velocity intentions scripts emit as effects, detects collisions and
// separates overlapping objects. Its output deliberately need not match any
// single script's intention — when two characters move to the same spot it
// places them at adjacent positions, exactly the behaviour the paper uses
// to motivate broadened update rules.
package physics

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/engine"
	"repro/internal/value"
)

// Rect is an axis-aligned world boundary.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Config configures a 2-D physics component for one class.
type Config struct {
	// Class is the class whose position this component owns.
	Class string
	// XAttr, YAttr are the owned state attributes (declare them
	// `by physics` in the class).
	XAttr, YAttr string
	// VXEffect, VYEffect are the effect attributes carrying intended
	// velocity (typically declared with the avg combinator). Objects with
	// no contribution this tick do not move.
	VXEffect, VYEffect string
	// Dt is the integration step per tick (default 1).
	Dt float64
	// Radius is the collision radius; 0 disables collision resolution.
	Radius float64
	// Bounds, when non-nil, clamps positions.
	Bounds *Rect
	// Iterations is the number of separation passes (default 4).
	Iterations int
	// MaxSpeed, when positive, clamps intended velocity magnitude.
	MaxSpeed float64
}

// Physics implements engine.UpdateComponent.
type Physics struct {
	cfg Config
	// Collisions counts separations performed on the last tick (observable
	// for tests and the contention experiment E3).
	Collisions int64

	// bodies and idx are per-tick scratch, retained across ticks so a
	// steady-state update allocates nothing.
	bodies []body
	idx    []int
}

// New2D builds the component. Register it on a world whose class declares
// XAttr/YAttr `by physics`.
func New2D(cfg Config) *Physics {
	if cfg.Dt == 0 {
		cfg.Dt = 1
	}
	if cfg.Iterations == 0 {
		cfg.Iterations = 4
	}
	return &Physics{cfg: cfg}
}

// Name implements engine.UpdateComponent.
func (p *Physics) Name() string { return "physics" }

type body struct {
	id   value.ID
	row  int
	x, y float64
}

// Update implements engine.UpdateComponent: integrate intentions, resolve
// collisions, clamp to bounds, stage owned attributes. Bodies are visited
// in ascending physical row order (the class's storage order).
func (p *Physics) Update(ctx *engine.UpdateCtx) error {
	cfg := p.cfg
	var h [4]engine.AttrHandle
	for i, attr := range [4]string{cfg.XAttr, cfg.YAttr, cfg.VXEffect, cfg.VYEffect} {
		var err error
		if h[i], err = ctx.Attr(cfg.Class, attr); err != nil {
			return fmt.Errorf("physics: %w", err)
		}
	}
	hx, hy, hvx, hvy := h[0], h[1], h[2], h[3]
	bodies := p.bodies[:0]
	for row, live := range ctx.Live(hx) {
		if !live {
			continue
		}
		x, y := ctx.StateAt(hx, row).AsNumber(), ctx.StateAt(hy, row).AsNumber()
		var vx, vy float64
		if v, ok := ctx.EffectAt(hvx, row); ok {
			vx = v.AsNumber()
		}
		if v, ok := ctx.EffectAt(hvy, row); ok {
			vy = v.AsNumber()
		}
		if cfg.MaxSpeed > 0 {
			if sp := math.Hypot(vx, vy); sp > cfg.MaxSpeed {
				s := cfg.MaxSpeed / sp
				vx, vy = vx*s, vy*s
			}
		}
		bodies = append(bodies, body{id: ctx.IDAt(hx, row), row: row, x: x + vx*cfg.Dt, y: y + vy*cfg.Dt})
	}
	p.bodies = bodies

	if cfg.Radius > 0 {
		p.resolve(bodies)
	}
	if cfg.Bounds != nil {
		for i := range bodies {
			bodies[i].x = math.Min(math.Max(bodies[i].x, cfg.Bounds.MinX), cfg.Bounds.MaxX)
			bodies[i].y = math.Min(math.Max(bodies[i].y, cfg.Bounds.MinY), cfg.Bounds.MaxY)
		}
	}
	for _, b := range bodies {
		if err := ctx.StageAt(hx, b.row, value.Num(b.x)); err != nil {
			return err
		}
		if err := ctx.StageAt(hy, b.row, value.Num(b.y)); err != nil {
			return err
		}
	}
	return nil
}

// resolve separates overlapping bodies with a sweep-and-prune pass over x,
// iterated a fixed number of times. Deterministic: bodies are processed in
// sorted order and pushed apart symmetrically.
func (p *Physics) resolve(bodies []body) {
	r2 := 2 * p.cfg.Radius
	idx := slices.Grow(p.idx[:0], len(bodies))[:len(bodies)]
	p.idx = idx
	for it := 0; it < p.cfg.Iterations; it++ {
		for i := range idx {
			idx[i] = i
		}
		slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(bodies[a].x, bodies[b].x) })
		moved := false
		for ii := 0; ii < len(idx); ii++ {
			i := idx[ii]
			for jj := ii + 1; jj < len(idx); jj++ {
				j := idx[jj]
				if bodies[j].x-bodies[i].x > r2 {
					break // sweep: no further overlap possible on x
				}
				dx := bodies[j].x - bodies[i].x
				dy := bodies[j].y - bodies[i].y
				d := math.Hypot(dx, dy)
				if d >= r2 {
					continue
				}
				p.Collisions++
				moved = true
				var nx, ny float64
				if d > 1e-9 {
					nx, ny = dx/d, dy/d
				} else {
					// Same point: separate deterministically along id order.
					if bodies[i].id < bodies[j].id {
						nx, ny = 1, 0
					} else {
						nx, ny = -1, 0
					}
					d = 0
				}
				push := (r2 - d) / 2
				bodies[i].x -= nx * push
				bodies[i].y -= ny * push
				bodies[j].x += nx * push
				bodies[j].y += ny * push
			}
		}
		if !moved {
			break
		}
	}
}
