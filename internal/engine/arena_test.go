package engine_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
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
