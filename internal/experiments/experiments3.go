package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/physics"
	"repro/internal/plan"
	"repro/internal/stats"
	"repro/internal/workload"
)

// E15 measures batched join execution (PR 3) against the scalar per-match
// interpreter on join-dominated workloads, single core: the paper's Fig-2
// crowding loop, the rts combat maxby join, and the flocking scenario whose
// tick is almost entirely range-join work. Both arms use the same adaptive
// strategy selection and the same per-tick indexes; only match execution
// differs — interpreted loop body per candidate versus batch-gathered rows,
// split-predicate re-check over raw columns and columnar contribution folds.
// The last columns expose the new join/index counters on the auto arm.
func E15(sizes map[string][]int, ticks int) (Table, error) {
	t := Table{
		ID:     "E15",
		Title:  "batched vs scalar join execution (single core, ms/tick)",
		Header: []string{"workload", "n", "scalar", "batched", "unfused", "auto", "batched speedup", "fused speedup", "cand/probe", "build ms/tick"},
		Notes:  "batched speedup = scalar/batched; fused speedup = unfused/batched (residual-mask and fold kernels with fusion disabled) — expect ~1x here: those kernels are a small share of a batched join tick, so the fusion delta concentrates in E13's per-object kernels; index build is a minor share too (compare build ms/tick with batched); cand/probe and build ms/tick are counter deltas over the batched arm's timed ticks only, warm-up excluded; strategies adapt identically in every arm",
	}
	type wk struct {
		name     string
		src      string
		populate func(w *engine.World, n int) error
	}
	workloads := []wk{
		{"fig2", core.SrcFig2, func(w *engine.World, n int) error {
			_, err := core.PopulateUnits(w, workload.Uniform(n, 1200, 1200, 7), 10)
			return err
		}},
		{"rts", core.SrcRTS, func(w *engine.World, n int) error {
			ph := physics.New2D(physics.Config{
				Class: "Soldier", XAttr: "x", YAttr: "y",
				VXEffect: "vx", VYEffect: "vy",
				Radius: 1, MaxSpeed: 3,
			})
			if err := w.Register(ph); err != nil {
				return err
			}
			_, err := core.PopulateSoldiers(w, workload.Clustered(n, 8, 60, 1500, 1500, 11))
			return err
		}},
		{"flock", core.SrcFlock, func(w *engine.World, n int) error {
			_, err := core.PopulateBoids(w, workload.Uniform(n, 1400, 1400, 3))
			return err
		}},
	}
	for _, wl := range workloads {
		sc, err := core.LoadScenario(wl.name, wl.src)
		if err != nil {
			return t, err
		}
		for _, n := range sizes[wl.name] {
			arms := []engine.Options{
				{Join: plan.JoinScalar},
				{Join: plan.JoinBatched},
				{Join: plan.JoinBatched, Unfused: true},
				{Join: plan.JoinAuto},
			}
			times := make([]time.Duration, len(arms))
			var candPerProbe, buildMS float64
			for i, opts := range arms {
				w, err := sc.NewWorld(opts)
				if err != nil {
					return t, err
				}
				if err := wl.populate(w, n); err != nil {
					return t, err
				}
				// Batched arms run several times faster than the scalar
				// one; more measured ticks keep the unfused/batched ratio
				// out of timer noise.
				armTicks := ticks
				if opts.Join == plan.JoinBatched {
					armTicks = ticks * 5
				}
				// Layer columns are counter deltas over exactly the
				// timed ticks: the warm-up tick stays out of them.
				var base stats.ExecCounters
				if times[i], err = timedTicks(w.RunTick, armTicks, func() { base = w.ExecStats() }); err != nil {
					return t, err
				}
				if opts.Join == plan.JoinBatched && !opts.Unfused {
					st := w.ExecStats()
					if probes := st.JoinProbeRows - base.JoinProbeRows; probes > 0 {
						candPerProbe = float64(st.JoinBatchedRows-base.JoinBatchedRows) / float64(probes)
					}
					buildMS = float64(st.IndexBuildNanos-base.IndexBuildNanos) / 1e6 / float64(armTicks)
				}
			}
			scalar, batched, unfused, auto := times[0], times[1], times[2], times[3]
			t.Rows = append(t.Rows, []string{
				wl.name, fmt.Sprint(n),
				ms(scalar), ms(batched), ms(unfused), ms(auto),
				fmt.Sprintf("%.1fx", float64(scalar)/float64(batched)),
				fmt.Sprintf("%.2fx", float64(unfused)/float64(batched)),
				fmt.Sprintf("%.1f", candPerProbe),
				fmt.Sprintf("%.2f", buildMS),
			})
		}
	}
	return t, nil
}
