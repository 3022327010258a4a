package engine_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/physics"
	"repro/internal/plan"
	"repro/internal/value"
	"repro/internal/workload"
)

func pooledVehicleWorld(t *testing.T, n int, pool *engine.ArenaPool, exec plan.ExecMode) *engine.World {
	t.Helper()
	sc, err := core.LoadScenario("vehicles", core.SrcVehicles)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sc.NewWorld(engine.Options{Workers: 1, Exec: exec})
	if err != nil {
		t.Fatal(err)
	}
	w.SetArenaPool(pool)
	if _, err := core.PopulateVehicles(w, workload.Uniform(n, 4000, 4000, 3)); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSteadyStateTickAllocsZero is the arena-pooling acceptance guard: a
// warmed world ticking through a shared arena pool must not allocate at
// all in steady state — kernel machines, index builders, execution
// contexts and accumulator slabs are all checked out or pooled, never
// remade per tick. ExecScalar pins the scalar row path: binding a row must
// not box a reader, and staged rule results must reuse their maps.
func TestSteadyStateTickAllocsZero(t *testing.T) {
	for _, exec := range []plan.ExecMode{plan.ExecAuto, plan.ExecScalar} {
		pool := &engine.ArenaPool{}
		w := pooledVehicleWorld(t, 500, pool, exec)
		for i := 0; i < 5; i++ {
			if err := w.RunTick(); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(20, func() {
			if err := w.RunTick(); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Fatalf("Exec %v: steady-state RunTick allocates %.1f objects/tick, want 0", exec, avg)
		}
	}
}

// srcBalls steers every ball toward its goal through physics-owned
// positions; no joins, so the update step is the only per-row work besides
// the effect phase.
const srcBalls = `
class Ball {
  state:
    number x = 0 by physics;
    number y = 0 by physics;
    number gx = 0;
    number gy = 0;
  effects:
    number vx : avg;
    number vy : avg;
  run {
    vx <- (gx - x) * 0.1;
    vy <- (gy - y) * 0.1;
  }
}
`

// TestPhysicsTickAllocsZero extends the steady-state guard to the update
// step's component path: a warmed world of 500 balls converging on one
// spot, with physics.New2D registered, allocates nothing per tick — without
// and with collision separation.
func TestPhysicsTickAllocsZero(t *testing.T) {
	for _, radius := range []float64{0, 1} {
		w := mustVecWorld(t, srcBalls, engine.Options{Workers: 1})
		w.SetArenaPool(&engine.ArenaPool{})
		ph := physics.New2D(physics.Config{
			Class: "Ball", XAttr: "x", YAttr: "y", VXEffect: "vx", VYEffect: "vy",
			MaxSpeed: 4, Radius: radius,
		})
		if err := w.Register(ph); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			if _, err := w.Spawn("Ball", map[string]value.Value{
				"x": value.Num(float64(i%25) * 3), "y": value.Num(float64(i/25) * 3),
				"gx": value.Num(36), "gy": value.Num(30),
			}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 5; i++ {
			if err := w.RunTick(); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(20, func() {
			if err := w.RunTick(); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Fatalf("Radius %v: steady-state physics tick allocates %.1f objects/tick, want 0", radius, avg)
		}
		if radius > 0 && ph.Collisions == 0 {
			t.Fatal("no separations: the guard does not exercise collision resolution")
		}
	}
}

// TestArenaPoolSharedAcrossWorlds pins the checkout protocol: two worlds
// alternating ticks through one pool reuse the same arena (LIFO), and the
// builder-generation check keeps their index state bit-identical to worlds
// that own private arenas.
func TestArenaPoolSharedAcrossWorlds(t *testing.T) {
	pool := &engine.ArenaPool{}
	a := pooledVehicleWorld(t, 120, pool, plan.ExecAuto)
	b := pooledVehicleWorld(t, 120, pool, plan.ExecAuto)
	ref := func() *engine.World {
		sc, err := core.LoadScenario("vehicles", core.SrcVehicles)
		if err != nil {
			t.Fatal(err)
		}
		w, err := sc.NewWorld(engine.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.PopulateVehicles(w, workload.Uniform(120, 4000, 4000, 3)); err != nil {
			t.Fatal(err)
		}
		return w
	}()
	for i := 0; i < 6; i++ {
		for _, w := range []*engine.World{a, b, ref} {
			if err := w.RunTick(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, id := range ref.IDs("Vehicle") {
		for _, attr := range []string{"x", "y", "dx", "dy", "fuel", "odo", "stress"} {
			rv, _ := ref.Get("Vehicle", id, attr)
			av, _ := a.Get("Vehicle", id, attr)
			bv, _ := b.Get("Vehicle", id, attr)
			if !rv.Equal(av) || !rv.Equal(bv) {
				t.Fatalf("vehicle %d %s: pooled %v/%v vs owned %v", id, attr, av, bv, rv)
			}
		}
	}
}
