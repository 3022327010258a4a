package views_test

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/value"
	"repro/internal/views"
)

// TestApplySteadyStateZeroAlloc is the regression guard for the package's
// headline economy: once a subscription set is warmed (kernels compiled,
// lanes and delta buffers grown), maintaining it performs zero heap
// allocations per Apply — the property that lets one registry serve many
// thousands of spectators without the GC joining the tick loop. The mix
// covers every kind plus a spread of Select thresholds that canonicalize to
// one shared kernel, interest boxes on the indexed delta arm, and the churn
// driver dirties rows through SetState — moving some across boxes and index
// cells every round — so the measurement isolates view maintenance from
// engine tick costs.
func TestApplySteadyStateZeroAlloc(t *testing.T) {
	w := unitWorld(t, 256, engine.Options{})
	ids := w.IDs("Unit")
	r := views.New(w, plan.DefaultCosts())
	for i := 0; i < 40; i++ {
		mustSub(t, r, views.Def{
			Class:   "Unit",
			Pred:    fmt.Sprintf("health < %d", 55+i),
			Payload: []string{"health"},
		})
	}
	for i := 0; i < 24; i++ {
		pred, err := views.InterestPred([]string{"x", "y"},
			[]float64{float64(15 + (i*37)%90), float64(15 + (i*53)%90)}, 15)
		if err != nil {
			t.Fatal(err)
		}
		mustSub(t, r, views.Def{Class: "Unit", Pred: pred, Payload: []string{"x", "y"}})
	}
	mustSub(t, r, views.Def{Class: "Unit", Pred: "health < 75", Kind: views.Count})
	mustSub(t, r, views.Def{Class: "Unit", Pred: "true", Kind: views.Sum, Attr: "health"})
	mustSub(t, r, views.Def{Class: "Unit", Pred: "true", Kind: views.TopK, Attr: "health", K: 8})

	var sunk int
	sink := func(d *views.Delta) { sunk += len(d.AddIDs) + len(d.UpdIDs) + len(d.RemIDs) }
	step := 0
	round := func() {
		// Dirty a sliding window of rows with values that cross the Select
		// thresholds back and forth, so every Apply does real delta work:
		// kernel evaluation, membership merges, aggregate refolds.
		step++
		for i := 0; i < 8; i++ {
			id := ids[(step*5+i*31)%len(ids)]
			hp := float64(50 + (step*7+i*13)%50)
			if err := w.SetState("Unit", id, "health", value.Num(hp)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 8; i++ {
			ph := step % 50
			id := ids[(ph*3+i*47)%len(ids)]
			x, y := float64((ph*11+i*29)%120), float64((ph*17+i*7)%120)
			if err := w.SetState("Unit", id, "x", value.Num(x)); err != nil {
				t.Fatal(err)
			}
			if err := w.SetState("Unit", id, "y", value.Num(y)); err != nil {
				t.Fatal(err)
			}
		}
		r.Apply(sink)
	}
	// Warm: the first Apply resyncs every subscription from a full rescan,
	// then enough churn rounds for every retained buffer — membership sets,
	// delta lists, payload columns — to reach its steady-state capacity
	// (the churn pattern's period is 50 rounds).
	r.Apply(sink)
	for i := 0; i < 60; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Errorf("steady-state Apply allocates %.1f times per round, want 0", allocs)
	}
	if sunk == 0 {
		t.Fatal("churn driver produced no deltas; the measurement is vacuous")
	}
	if w.ExecStats().ViewIndexHits == 0 {
		t.Fatal("no box probe found a candidate; the indexed arm went unmeasured")
	}
}
