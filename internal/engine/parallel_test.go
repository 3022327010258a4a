package engine_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/physics"
	"repro/internal/plan"
	"repro/internal/value"
	"repro/internal/workload"
)

// trafficWorld builds a vehicles world sized so the two-axis cost model
// actually fans out under Workers > 1 (the extent spans several batches).
func trafficWorld(t *testing.T, n int, opts engine.Options) *engine.World {
	t.Helper()
	sc, err := core.LoadScenario("vehicles", core.SrcVehicles)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sc.NewWorld(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.PopulateVehicles(w, workload.Uniform(n, 4000, 4000, 5)); err != nil {
		t.Fatal(err)
	}
	return w
}

// rtsWorldFor builds the combat scenario with its physics component — a
// scalar-only class (it cross-emits damage into itself), so it exercises
// the sharded scalar path plus worker-sink merging.
func rtsWorldFor(t *testing.T, n int, opts engine.Options) *engine.World {
	t.Helper()
	sc, err := core.LoadScenario("rts", core.SrcRTS)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sc.NewWorld(opts)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Register(physics.New2D(physics.Config{
		Class: "Soldier", XAttr: "x", YAttr: "y",
		VXEffect: "vx", VYEffect: "vy",
		Radius: 0.8, MaxSpeed: 2,
		Bounds: &physics.Rect{MinX: 0, MinY: 0, MaxX: 400, MaxY: 400},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.PopulateSoldiers(w, workload.Clustered(n, 2, 30, 400, 400, 7)); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestParallelCountersMatchSerial pins the statistics contract of the
// sharded executor: Workers=4 must report exactly the row counts Workers=1
// reports on the same scenario (the old parallel path reported zero
// effect-phase work), and the shard counter must show the pool was used.
func TestParallelCountersMatchSerial(t *testing.T) {
	const n, ticks = 3000, 4
	serial := trafficWorld(t, n, engine.Options{Workers: 1})
	par := trafficWorld(t, n, engine.Options{Workers: 4})
	for _, w := range []*engine.World{serial, par} {
		if err := w.Run(ticks); err != nil {
			t.Fatal(err)
		}
	}
	ss, ps := serial.ExecStats(), par.ExecStats()
	if ss.ScalarRows != ps.ScalarRows || ss.VectorRows != ps.VectorRows || ss.HandlerRows != ps.HandlerRows {
		t.Fatalf("counter drift: serial %+v, parallel %+v", ss, ps)
	}
	if ps.VectorRows == 0 {
		t.Fatal("traffic under Workers=4 reported no vectorized rows")
	}
	if ss.ParallelShards != 0 {
		t.Fatalf("Workers=1 dispatched %d shards", ss.ParallelShards)
	}
	if ps.ParallelShards == 0 {
		t.Fatal("Workers=4 never dispatched shards on a 3000-row extent")
	}

	// The scalar-only rts class must count its effect-phase rows too.
	sRTS := rtsWorldFor(t, 1200, engine.Options{Workers: 1})
	pRTS := rtsWorldFor(t, 1200, engine.Options{Workers: 4})
	for _, w := range []*engine.World{sRTS, pRTS} {
		if err := w.Run(3); err != nil {
			t.Fatal(err)
		}
	}
	if sRTS.ExecStats().ScalarRows != pRTS.ExecStats().ScalarRows {
		t.Fatalf("rts ScalarRows: serial %d, parallel %d",
			sRTS.ExecStats().ScalarRows, pRTS.ExecStats().ScalarRows)
	}
	if pRTS.ExecStats().ScalarRows == 0 {
		t.Fatal("rts under Workers=4 reported zero scalar effect-phase rows")
	}

	// DisableStats must silence every counter on the parallel path as well.
	off := trafficWorld(t, n, engine.Options{Workers: 4, DisableStats: true})
	if err := off.Run(2); err != nil {
		t.Fatal(err)
	}
	if c := off.ExecStats(); c.ScalarRows != 0 || c.VectorRows != 0 || c.ParallelShards != 0 || c.HandlerRows != 0 {
		t.Fatalf("DisableStats leaked counters: %+v", c)
	}
}

// TestForcedVectorizedParallel pins the composition bug this PR fixes:
// forcing ExecVectorized with Workers > 1 used to fall back to the scalar
// worker loop silently. Now the batch kernels must run — and produce the
// same trajectory and the same vectorized-row count as Workers=1.
func TestForcedVectorizedParallel(t *testing.T) {
	const n, ticks = 2500, 4
	w1 := trafficWorld(t, n, engine.Options{Workers: 1, Exec: plan.ExecVectorized})
	w4 := trafficWorld(t, n, engine.Options{Workers: 4, Exec: plan.ExecVectorized})
	for _, w := range []*engine.World{w1, w4} {
		if err := w.Run(ticks); err != nil {
			t.Fatal(err)
		}
	}
	if w4.ExecStats().VectorRows == 0 {
		t.Fatal("Workers=4 + ExecVectorized ran no batch kernels")
	}
	if w1.ExecStats().VectorRows != w4.ExecStats().VectorRows {
		t.Fatalf("VectorRows: Workers=1 %d, Workers=4 %d",
			w1.ExecStats().VectorRows, w4.ExecStats().VectorRows)
	}
	if d := diffClassWorlds(w1, w4, "Vehicle", vehicleAttrs, w1.IDs("Vehicle")); d != "" {
		t.Fatal(d)
	}
}

var (
	vehicleAttrs = []string{"x", "y", "dx", "dy", "speed", "fuel", "odo", "stress"}
	soldierAttrs = []string{"player", "x", "y", "tx", "ty", "range", "health", "attack"}
)

func diffClassWorlds(a, b *engine.World, class string, attrs []string, ids []value.ID) string {
	for _, id := range ids {
		for _, attr := range attrs {
			av, aok := a.Get(class, id, attr)
			bv, bok := b.Get(class, id, attr)
			if aok != bok {
				return fmt.Sprintf("%s %d %s: presence %v vs %v", class, id, attr, aok, bok)
			}
			if aok && !av.Equal(bv) {
				return fmt.Sprintf("%s %d %s: %v vs %v", class, id, attr, av, bv)
			}
		}
	}
	return ""
}

// srcInexactFold makes every row emit an inexact float into one shared sum
// target: each object picks the max-x hub and adds x*0.1 + 1/(x+3) to the
// hub's tally. Float addition is not associative, so the hub's total is
// bit-identical across configurations only if every configuration folds
// the contributions in the serial row order.
const srcInexactFold = `
class Obj {
  state:
    number x = 0;
    number hub = 0;
    number total = 0;
  effects:
    number t : sum;
  update:
    total = total + t;
  run {
    accum ref<Obj> h with maxby over Obj u from Obj {
      if (u.hub == 1) {
        h <- u by u.x;
      }
    } in {
      if (h != null) {
        h.t <- x * 0.1 + 1 / (x + 3);
      }
    }
  }
}
`

func spawnInexactObj(w *engine.World, i int) (value.ID, error) {
	hub := 0.0
	if i%97 == 0 {
		hub = 1
	}
	return w.Spawn("Obj", map[string]value.Value{
		"x": value.Num(float64(i%2999) * 1.37), "hub": value.Num(hub),
	})
}

func inexactFoldWorld(t *testing.T, n int, opts engine.Options) *engine.World {
	t.Helper()
	sc, err := core.LoadScenario("inexact", srcInexactFold)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sc.NewWorld(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := spawnInexactObj(w, i); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// TestParallelMatrixDifferential is the acceptance guard for the morsel
// driver: Workers ∈ {1, 4} × Exec ∈ {scalar, vectorized, auto} over the
// traffic and rts scenarios with spawn/kill churn must end bit-identical to
// the Workers=1/ExecScalar reference. It extends the scalar≡vectorized
// guards in vector_test.go with the parallelism axis. The inexact-fold
// scenario runs Workers ∈ {1, 2, 4} × Partitions ∈ {0, 2} instead: its
// shared float sum only matches when every configuration merges
// contributions in row order.
func TestParallelMatrixDifferential(t *testing.T) {
	type cfg struct {
		workers int
		exec    plan.ExecMode
		parts   int
	}
	var cfgs, foldCfgs []cfg
	for _, wk := range []int{1, 4} {
		for _, ex := range []plan.ExecMode{plan.ExecScalar, plan.ExecVectorized, plan.ExecAuto} {
			cfgs = append(cfgs, cfg{wk, ex, 0})
		}
	}
	for _, parts := range []int{0, 2} {
		for _, wk := range []int{1, 2, 4} {
			foldCfgs = append(foldCfgs, cfg{wk, plan.ExecAuto, parts})
		}
	}
	scenarios := []struct {
		name  string
		class string
		attrs []string
		n     int
		ticks int
		cfgs  []cfg
		build func(t *testing.T, n int, opts engine.Options) *engine.World
		spawn func(w *engine.World, i int) (value.ID, error)
	}{
		{
			name: "traffic", class: "Vehicle", attrs: vehicleAttrs, n: 2500, ticks: 5, cfgs: cfgs,
			build: trafficWorld,
			spawn: func(w *engine.World, i int) (value.ID, error) {
				return w.Spawn("Vehicle", map[string]value.Value{
					"x": value.Num(float64(i%97) * 40), "y": value.Num(float64(i%89) * 40),
					"dx": value.Num(1), "speed": value.Num(float64(2 + i%4)),
					"fuel": value.Num(float64(300 + i%57)),
				})
			},
		},
		{
			name: "rts", class: "Soldier", attrs: soldierAttrs, n: 900, ticks: 4, cfgs: cfgs,
			build: rtsWorldFor,
			spawn: func(w *engine.World, i int) (value.ID, error) {
				return w.Spawn("Soldier", map[string]value.Value{
					"player": value.Str([2]string{"red", "blue"}[i%2]),
					"x":      value.Num(float64(50 + i%300)), "y": value.Num(float64(50 + i%290)),
					"tx": value.Num(200), "ty": value.Num(200),
				})
			},
		},
		{
			name: "inexact-fold", class: "Obj", attrs: []string{"x", "hub", "total"}, n: 3000, ticks: 3, cfgs: foldCfgs,
			build: inexactFoldWorld,
			spawn: func(w *engine.World, i int) (value.ID, error) { return spawnInexactObj(w, 3000+i) },
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			cfgs := sc.cfgs
			worlds := make([]*engine.World, len(cfgs))
			for i, c := range cfgs {
				worlds[i] = sc.build(t, sc.n, engine.Options{Workers: c.workers, Exec: c.exec, Partitions: c.parts})
			}
			ref := worlds[0] // Workers=1, unpartitioned
			live := append([]value.ID(nil), ref.IDs(sc.class)...)
			rng := rand.New(rand.NewSource(11))
			for tick := 0; tick < sc.ticks; tick++ {
				// Churn: kill a random live object and spawn a fresh one
				// identically in every world (ids stay aligned because
				// spawn order is identical).
				if len(live) > 20 {
					k := rng.Intn(len(live))
					for _, w := range worlds {
						if err := w.Kill(sc.class, live[k]); err != nil {
							t.Fatal(err)
						}
					}
					live = append(live[:k], live[k+1:]...)
				}
				var nid value.ID
				for wi, w := range worlds {
					id, err := sc.spawn(w, tick*31)
					if err != nil {
						t.Fatal(err)
					}
					if wi == 0 {
						nid = id
					} else if id != nid {
						t.Fatalf("id drift: %d vs %d", id, nid)
					}
				}
				live = append(live, nid)
				for wi, w := range worlds {
					if err := w.RunTick(); err != nil {
						t.Fatalf("cfg %+v tick %d: %v", cfgs[wi], tick, err)
					}
				}
			}
			for wi := 1; wi < len(worlds); wi++ {
				if d := diffClassWorlds(ref, worlds[wi], sc.class, sc.attrs, live); d != "" {
					t.Fatalf("cfg %+v diverged from %+v: %s", cfgs[wi], cfgs[0], d)
				}
			}
		})
	}
}
