package engine_test

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/physics"
	"repro/internal/value"
)

const srcRowAPI = `
class P {
  state:
    number x = 0 by mover;
    number hp = 10;
  effects:
    number dx : sum;
}
`

// rowComp is a test component named "mover" whose Update is supplied per
// test.
type rowComp struct {
	update func(ctx *engine.UpdateCtx) error
}

func (rowComp) Name() string                         { return "mover" }
func (c rowComp) Update(ctx *engine.UpdateCtx) error { return c.update(ctx) }

func rowAPIWorld(t *testing.T, update func(ctx *engine.UpdateCtx) error) *engine.World {
	t.Helper()
	w := mustVecWorld(t, srcRowAPI, engine.Options{})
	if err := w.Register(rowComp{update: update}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Spawn("P", map[string]value.Value{"x": value.Num(float64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// TestStageAtRejectsNonOwnerHandle: a handle resolved by a component that
// does not own the attribute reads fine but cannot stage it.
func TestStageAtRejectsNonOwnerHandle(t *testing.T) {
	w := rowAPIWorld(t, func(ctx *engine.UpdateCtx) error {
		hp, err := ctx.Attr("P", "hp")
		if err != nil {
			return err
		}
		if got := ctx.StateAt(hp, 0).AsNumber(); got != 10 {
			return fmt.Errorf("hp at row 0 = %v, want 10", got)
		}
		return ctx.StageAt(hp, 0, value.Num(0))
	})
	err := w.RunTick()
	if err == nil || !strings.Contains(err.Error(), `component "mover" may not stage P.hp`) {
		t.Fatalf("err = %v, want a non-owner staging error", err)
	}
	if got := w.MustGet("P", w.IDs("P")[0], "hp").AsNumber(); got != 10 {
		t.Fatalf("hp = %v after a rejected stage, want 10", got)
	}
}

// TestStageAtRejectsWrongKind: staging a value of the wrong kind errors
// with the attribute's declared kind.
func TestStageAtRejectsWrongKind(t *testing.T) {
	w := rowAPIWorld(t, func(ctx *engine.UpdateCtx) error {
		x, err := ctx.Attr("P", "x")
		if err != nil {
			return err
		}
		return ctx.StageAt(x, 0, value.Str("far"))
	})
	err := w.RunTick()
	if err == nil || !strings.Contains(err.Error(), "staging string into P.x (number)") {
		t.Fatalf("err = %v, want a kind error", err)
	}
}

// TestStageAtKilledRowIsNoop: staging a row (or an id) that is no longer
// live succeeds and writes nothing, not even into the dead slot.
func TestStageAtKilledRowIsNoop(t *testing.T) {
	var killed value.ID
	deadRow := -1
	w := rowAPIWorld(t, func(ctx *engine.UpdateCtx) error {
		x, err := ctx.Attr("P", "x")
		if err != nil {
			return err
		}
		if deadRow < 0 {
			return nil
		}
		if ctx.Live(x)[deadRow] {
			return fmt.Errorf("row %d is still live", deadRow)
		}
		if err := ctx.StageAt(x, deadRow, value.Num(777)); err != nil {
			return err
		}
		return ctx.Stage("P", killed, "x", value.Num(778))
	})
	if err := w.RunTick(); err != nil {
		t.Fatal(err)
	}
	tab := w.ClassTable("P")
	killed = w.IDs("P")[1]
	deadRow = tab.Row(killed)
	xi := tab.ColIndex("x")
	before := tab.At(deadRow, xi)
	if err := w.Kill("P", killed); err != nil {
		t.Fatal(err)
	}
	if err := w.RunTick(); err != nil {
		t.Fatal(err)
	}
	if got := tab.At(deadRow, xi); !got.Equal(before) {
		t.Fatalf("dead slot x = %v, want untouched %v", got, before)
	}
	if w.Count("P") != 2 {
		t.Fatalf("count = %d, want 2", w.Count("P"))
	}
}

// byNamePhysics is physics.Physics's integrate/separate/clamp step written
// against the by-name UpdateCtx API (one id and one attribute name per
// call) — the oracle the row-addressed component must match bit for bit.
type byNamePhysics struct {
	cfg        physics.Config
	collisions int64
}

func (p *byNamePhysics) Name() string { return "physics" }

func (p *byNamePhysics) Update(ctx *engine.UpdateCtx) error {
	cfg := p.cfg
	type body struct {
		id   value.ID
		x, y float64
	}
	var bodies []body
	for _, id := range ctx.IDs(cfg.Class) {
		xv, _ := ctx.State(cfg.Class, id, cfg.XAttr)
		yv, _ := ctx.State(cfg.Class, id, cfg.YAttr)
		var vx, vy float64
		if v, ok := ctx.Effect(cfg.Class, id, cfg.VXEffect); ok {
			vx = v.AsNumber()
		}
		if v, ok := ctx.Effect(cfg.Class, id, cfg.VYEffect); ok {
			vy = v.AsNumber()
		}
		if sp := math.Hypot(vx, vy); sp > cfg.MaxSpeed {
			s := cfg.MaxSpeed / sp
			vx, vy = vx*s, vy*s
		}
		bodies = append(bodies, body{id: id, x: xv.AsNumber() + vx*cfg.Dt, y: yv.AsNumber() + vy*cfg.Dt})
	}
	r2 := 2 * cfg.Radius
	idx := make([]int, len(bodies))
	for it := 0; it < cfg.Iterations; it++ {
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return bodies[idx[a]].x < bodies[idx[b]].x })
		moved := false
		for ii := range idx {
			i := idx[ii]
			for _, j := range idx[ii+1:] {
				if bodies[j].x-bodies[i].x > r2 {
					break
				}
				dx, dy := bodies[j].x-bodies[i].x, bodies[j].y-bodies[i].y
				d := math.Hypot(dx, dy)
				if d >= r2 {
					continue
				}
				p.collisions++
				moved = true
				nx, ny := -1.0, 0.0
				if d > 1e-9 {
					nx, ny = dx/d, dy/d
				} else {
					if bodies[i].id < bodies[j].id {
						nx = 1
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
	for _, b := range bodies {
		x := math.Min(math.Max(b.x, cfg.Bounds.MinX), cfg.Bounds.MaxX)
		y := math.Min(math.Max(b.y, cfg.Bounds.MinY), cfg.Bounds.MaxY)
		if err := ctx.Stage(cfg.Class, b.id, cfg.XAttr, value.Num(x)); err != nil {
			return err
		}
		if err := ctx.Stage(cfg.Class, b.id, cfg.YAttr, value.Num(y)); err != nil {
			return err
		}
	}
	return nil
}

// TestRowPhysicsMatchesByName runs the arena under the row-addressed
// physics.New2D and under the by-name oracle, with speed clamp, bounds and
// collision separation on, across worker and partition counts. Fighters
// die and respawn mid-run, so the row walk crosses freed and reused
// slots. Positions must match bit for bit.
func TestRowPhysicsMatchesByName(t *testing.T) {
	const n = 600
	side := core.ArenaSide(n)
	cfg := physics.Config{
		Class: "Fighter", XAttr: "x", YAttr: "y", VXEffect: "vx", VYEffect: "vy",
		Dt: 1, Iterations: 4, MaxSpeed: 2, Radius: 1.5,
		Bounds: &physics.Rect{MinX: 0, MinY: 0, MaxX: side, MaxY: side},
	}
	sc, err := core.LoadScenario("arena", core.SrcArena)
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts engine.Options, comp engine.UpdateComponent) *engine.World {
		w, err := sc.NewWorld(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Register(comp); err != nil {
			t.Fatal(err)
		}
		ids, err := core.PopulateArena(w, n, 0.2, 0.3, 7)
		if err != nil {
			t.Fatal(err)
		}
		for tick := 0; tick < 20; tick++ {
			if tick == 8 {
				for i := 0; i < len(ids); i += 9 {
					if err := w.Kill("Fighter", ids[i]); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 30; i++ {
					c := side/2 + float64(i%5)
					if _, err := w.Spawn("Fighter", map[string]value.Value{
						"x": value.Num(c), "y": value.Num(c), "tx": value.Num(side), "ty": value.Num(0),
					}); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := w.RunTick(); err != nil {
				t.Fatal(err)
			}
		}
		return w
	}
	for _, workers := range []int{1, 2} {
		for _, parts := range []int{0, 2} {
			opts := engine.Options{Workers: workers, Partitions: parts}
			oracle := &byNamePhysics{cfg: cfg}
			row := physics.New2D(cfg)
			want := run(opts, oracle)
			got := run(opts, row)
			if d := diffClassWorlds(want, got, "Fighter", []string{"x", "y", "health"}, want.IDs("Fighter")); d != "" {
				t.Fatalf("workers=%d partitions=%d: %s", workers, parts, d)
			}
			if got.Count("Fighter") != want.Count("Fighter") {
				t.Fatalf("workers=%d partitions=%d: %d vs %d fighters", workers, parts, got.Count("Fighter"), want.Count("Fighter"))
			}
			if row.Collisions != oracle.collisions || row.Collisions == 0 {
				t.Fatalf("workers=%d partitions=%d: collisions %d, oracle %d", workers, parts, row.Collisions, oracle.collisions)
			}
		}
	}
}
