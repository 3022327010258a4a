package views_test

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/value"
	"repro/internal/views"
)

// wallDefs is the subscription mix the differential wall maintains: row
// selects (threshold and spatial box), every aggregate kind, a
// match-everything select, and the interest-box crowd. Mode is stamped per
// arm.
func wallDefs(t *testing.T, w *engine.World, mode plan.ViewMode) []views.Def {
	t.Helper()
	box, err := views.InterestPred([]string{"x", "y"}, []float64{60, 60}, 25)
	if err != nil {
		t.Fatal(err)
	}
	defs := []views.Def{
		{Class: "Unit", Pred: "health < 99", Payload: []string{"health", "x"}, Mode: mode},
		{Class: "Unit", Pred: box, Payload: []string{"x", "y"}, Mode: mode},
		{Class: "Unit", Pred: "health < 99 && x >= 30", Kind: views.Count, Mode: mode},
		{Class: "Unit", Pred: "health < 99", Kind: views.Sum, Attr: "health", Mode: mode},
		{Class: "Unit", Pred: "true", Kind: views.TopK, Attr: "health", K: 7, Mode: mode},
		{Class: "Unit", Payload: []string{"health"}, Mode: mode},
	}
	crowd := boxCrowd(w)
	for _, pred := range append(crowd, boxNearMisses...) {
		defs = append(defs, views.Def{Class: "Unit", Pred: pred, Payload: []string{"x", "health"}, Mode: mode})
	}
	// Aggregates over boxes fold what the indexed arm maintains.
	return append(defs,
		views.Def{Class: "Unit", Pred: box, Kind: views.Count, Mode: mode},
		views.Def{Class: "Unit", Pred: crowd[0], Kind: views.Sum, Attr: "health", Mode: mode},
		views.Def{Class: "Unit", Pred: box, Kind: views.TopK, Attr: "health", K: 5, Mode: mode},
	)
}

// boxCrowd is the indexed delta arm's edge-case crowd: 80 interest boxes
// over (x, y) that canonicalize to one shared kernel, plus a few boxes of
// other shapes. The crowd's median extent (20) is the candidate index's
// cell size, so boxes on multiples of 20 put their edges exactly on cell
// boundaries.
func boxCrowd(w *engine.World) []string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	boxOf := func(x0, x1, y0, y1 float64) string {
		return fmt.Sprintf("x >= %s && x <= %s && y >= %s && y <= %s", g(x0), g(x1), g(y0), g(y1))
	}
	rng := rand.New(rand.NewSource(41))
	ids := w.IDs("Unit")
	coord := func(id value.ID) (float64, float64) {
		return w.MustGet("Unit", id, "x").AsNumber(), w.MustGet("Unit", id, "y").AsNumber()
	}
	var preds []string
	for i := 0; i < 32; i++ { // ordinary, overlapping
		cx, cy := 10+rng.Float64()*100, 10+rng.Float64()*100
		preds = append(preds, boxOf(cx-10, cx+10, cy-10, cy+10))
	}
	for i := 0; i < 12; i++ { // zero extent, on a row's exact coordinates
		x, y := coord(ids[rng.Intn(len(ids))])
		preds = append(preds, boxOf(x, x, y, y))
	}
	for i := 0; i < 12; i++ { // edges on cell boundaries
		x0, y0 := 20*float64(rng.Intn(6)), 20*float64(rng.Intn(6))
		preds = append(preds, boxOf(x0, x0+20*float64(1+i%2), y0, y0+20))
	}
	for i := 0; i < 12; i++ { // edges on row coordinates
		xa, ya := coord(ids[rng.Intn(len(ids))])
		xb, yb := coord(ids[rng.Intn(len(ids))])
		preds = append(preds, boxOf(min(xa, xb), max(xa, xb), min(ya, yb), max(ya, yb)))
	}
	// Very wide boxes, and boxes that only the ±1e300 rows can fall in
	// (their cell numbers overflow int32).
	preds = append(preds,
		boxOf(0, 1e300, 0, 1e300),
		boxOf(0, 1e300, 0, 120),
		boxOf(1e299, 1e300, 0, 1e300),
		boxOf(0, 1e300, 1e299, 1e300),
		boxOf(1e300, 1e300, 0, 1e300),
		boxOf(0, 1e300, 1e300, 1e300),
		boxOf(0, 5e-324, 0, 1e300),
		boxOf(1e-300, 1e300, 1e-300, 1e300),
		boxOf(50, 50, 0, 1e300),
		boxOf(0, 1e300, 50, 50),
		boxOf(0, 0, 0, 0),
		boxOf(1e308, 1.7976931348623157e308, 0, 1e300),
	)
	// Boxes of other shapes: negative bounds (unary minus), flipped operand
	// order and repeated bounds are still boxes, on their own kernels.
	preds = append(preds,
		"x >= -1e300 && x <= 1e300 && y >= -1e300 && y <= 1e300",
		"x >= -1e300 && x <= -1e299 && y >= -1e300 && y <= 1e300",
		"20 <= x && 60 >= x && y <= 80 && 40 <= y",
		"x >= 10 && x >= 30 && x <= 90 && x <= 70 && y >= 0 && y <= 120",
	)
	return preds
}

// boxNearMisses are box-like predicates that must stay on kernels: a
// strict box, a one-sided box, a non-constant +Inf bound (the lexer
// rejects the literal 1e999) and a three-attribute box.
var boxNearMisses = []string{
	"x > 20 && x < 60 && y >= 20 && y <= 60",
	"x >= 20 && y >= 20 && y <= 60",
	"x >= 20 && x <= 1e308 * 10 && y >= 20 && y <= 60",
	"x >= 20 && x <= 80 && y >= 20 && y <= 80 && health >= 0 && health <= 99",
}

// extremeCoord draws a spawn or move coordinate: usually inside the map,
// sometimes NaN, ±Inf or ±1e300.
func extremeCoord(rng *rand.Rand) float64 {
	switch rng.Intn(10) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1 - 2*rng.Intn(2))
	case 2:
		return 1e300 * float64(1-2*rng.Intn(2))
	default:
		return rng.Float64() * 120
	}
}

// wallStream runs the crowding scenario under one engine configuration and
// maintenance mode — T ticks with spawn/kill churn and a mid-run
// checkpoint→restore — and serializes every emitted delta plus the final
// per-subscription state.
func wallStream(t *testing.T, opts engine.Options, mode plan.ViewMode) string {
	t.Helper()
	w := unitWorld(t, 400, opts)
	r := views.New(w, plan.DefaultCosts())
	var subs []*views.Sub
	for _, def := range wallDefs(t, w, mode) {
		subs = append(subs, mustSub(t, r, def))
	}
	var b strings.Builder
	emit := func(d *views.Delta) {
		fmt.Fprintf(&b, "  sub=%d tick=%d resync=%v add=%v/%v upd=%v/%v rem=%v agg=%v/%x top=%v\n",
			d.Sub, d.Tick, d.Resync, d.AddIDs, d.AddCols, d.UpdIDs, d.UpdCols,
			d.RemIDs, d.AggChanged, d.Agg, d.Top)
	}
	rng := rand.New(rand.NewSource(23))
	for tick := 0; tick < 12; tick++ {
		if err := w.RunTick(); err != nil {
			t.Fatal(err)
		}
		// Churn: spawns land inside and outside the interest boxes and at
		// extreme coordinates, moves cross boxes and cells, kills hit
		// arbitrary live rows (freeing physical rows for id-reuse hazards).
		for i := 0; i < 4; i++ {
			if _, err := w.Spawn("Unit", map[string]value.Value{
				"x":      value.Num(extremeCoord(rng)),
				"y":      value.Num(extremeCoord(rng)),
				"health": value.Num(40 + rng.Float64()*60),
			}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 6; i++ {
			// The oldest live unit moves every tick: it usually holds the
			// lowest physical row, the candidate index's first position.
			ids := w.IDs("Unit")
			id := ids[0]
			if i > 0 {
				id = ids[rng.Intn(len(ids))]
			}
			for _, a := range []string{"x", "y"} {
				if err := w.SetState("Unit", id, a, value.Num(extremeCoord(rng))); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 3; i++ {
			ids := w.IDs("Unit")
			if err := w.Kill("Unit", ids[rng.Intn(len(ids))]); err != nil {
				t.Fatal(err)
			}
		}
		if tick == 6 {
			// Mid-run snapshot round-trip: the feed cannot express the
			// compaction, so every subscription must resync identically.
			cp, err := w.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Restore(cp); err != nil {
				t.Fatal(err)
			}
		}
		fmt.Fprintf(&b, "tick %d:\n", tick)
		r.Apply(emit)
	}
	for _, s := range subs {
		fmt.Fprintf(&b, "final sub=%d members=%v agg=%x top=%v\n",
			s.ID(), s.Members(), s.Agg(), s.Top())
	}
	return b.String()
}

// TestViewDifferentialWall is the acceptance guard for incremental
// maintenance: across {Workers 1,4} × {Partitions 1,4} × {Exec scalar,
// vectorized}, and across maintenance modes (cost-model auto, forced
// delta, forced every-tick rescan), the emitted delta stream and final
// subscription state are bit-identical — under spawn/kill churn, physical
// row reuse and a mid-run checkpoint→restore resync.
func TestViewDifferentialWall(t *testing.T) {
	type cfg struct {
		name string
		opts engine.Options
	}
	var cfgs []cfg
	for _, wk := range []int{1, 4} {
		for _, parts := range []int{1, 4} {
			for _, ex := range []struct {
				name string
				mode plan.ExecMode
			}{{"scalar", plan.ExecScalar}, {"vec", plan.ExecVectorized}} {
				cfgs = append(cfgs, cfg{
					name: fmt.Sprintf("w%d-p%d-%s", wk, parts, ex.name),
					opts: engine.Options{Workers: wk, Partitions: parts, Exec: ex.mode},
				})
			}
		}
	}
	want := wallStream(t, cfgs[0].opts, plan.ViewRescan)
	for _, c := range cfgs {
		for _, m := range []struct {
			name string
			mode plan.ViewMode
		}{{"auto", plan.ViewAuto}, {"delta", plan.ViewDelta}, {"rescan", plan.ViewRescan}} {
			if c.name == cfgs[0].name && m.mode == plan.ViewRescan {
				continue // the baseline itself
			}
			t.Run(c.name+"-"+m.name, func(t *testing.T) {
				if got := wallStream(t, c.opts, m.mode); got != want {
					t.Errorf("delta stream diverged from %s-rescan baseline\nbaseline:\n%s\ngot:\n%s",
						cfgs[0].name, want, got)
				}
			})
		}
	}
}

// TestViewStatsCounters checks the ExecCounters plumbing and that the
// counters stay silent under DisableStats while maintenance itself is
// unaffected (the stream above already proves value-identity; this pins the
// counter side). The index counters must count exactly the box
// subscriptions' delta-arm probes, and never a near-miss.
func TestViewStatsCounters(t *testing.T) {
	for _, disable := range []bool{false, true} {
		w := unitWorld(t, 200, engine.Options{DisableStats: disable})
		r := views.New(w, plan.DefaultCosts())
		mustSub(t, r, views.Def{Class: "Unit", Pred: "health < 99", Kind: views.Count})
		mustSub(t, r, views.Def{Class: "Unit", Pred: "health < 99", Mode: plan.ViewRescan})
		// Health payloads make the boxes observe the damage ticks (units
		// never move here, so x and y alone would version-skip).
		whole := "x >= 0 && x <= 120 && y >= 0 && y <= 120"
		mustSub(t, r, views.Def{Class: "Unit", Pred: whole, Payload: []string{"health"}, Mode: plan.ViewDelta})
		mustSub(t, r, views.Def{Class: "Unit", Pred: whole, Payload: []string{"health"}, Mode: plan.ViewRescan})
		for _, pred := range boxNearMisses {
			mustSub(t, r, views.Def{Class: "Unit", Pred: pred, Payload: []string{"health"}, Mode: plan.ViewDelta})
		}
		const ticks = 3
		for i := 0; i < ticks; i++ {
			if err := w.RunTick(); err != nil {
				t.Fatal(err)
			}
			r.Apply(nil)
		}
		st := w.ExecStats()
		if disable {
			if st.ViewSubs != 0 || st.ViewDeltaRows != 0 || st.ViewRescans != 0 || st.ViewMaintNanos != 0 ||
				st.ViewIndexProbes != 0 || st.ViewIndexHits != 0 {
				t.Fatalf("DisableStats: view counters must stay zero, got %+v", st)
			}
			continue
		}
		if want := int64(4 + len(boxNearMisses)); st.ViewSubs != want {
			t.Errorf("ViewSubs = %d, want %d", st.ViewSubs, want)
		}
		if st.ViewRescans < 3 {
			t.Errorf("ViewRescans = %d, want >= 3 (one forced rescan per tick plus resyncs)", st.ViewRescans)
		}
		if st.ViewDeltaRows == 0 {
			t.Error("ViewDeltaRows stayed zero across crowding damage ticks")
		}
		if st.ViewMaintNanos <= 0 {
			t.Error("ViewMaintNanos not accumulated")
		}
		// The first Apply resyncs every subscription from a rescan; after
		// that only the one unpinned box probes, once per tick.
		if st.ViewIndexProbes != ticks-1 {
			t.Errorf("ViewIndexProbes = %d, want %d (one box on the delta arm, near-misses on kernels)",
				st.ViewIndexProbes, ticks-1)
		}
		if st.ViewIndexHits == 0 {
			t.Error("ViewIndexHits stayed zero though the whole-map box contains every damaged unit")
		}
	}
}
