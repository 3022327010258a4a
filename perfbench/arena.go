package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/physics"
	"repro/internal/plan"
	"repro/internal/value"
	"repro/internal/views"
)

// Arena workload sizes: one large battle-royale world watched by many
// spectators (E21's shape at a size one frame of which fits a 2-CPU box in
// well under 100 ms).
const (
	arenaFighters = 10000
	arenaSubs     = 1000
	arenaHot      = 0.02
	arenaMovers   = 0.05
	arenaRadius   = 40
	arenaWarm     = 3
)

// arenaSub remembers what a subscription asked for, so the output check
// can evaluate it from scratch.
type arenaSub struct {
	sub    *views.Sub
	box    [4]float64 // x lo, x hi, y lo, y hi (Select boxes)
	thresh float64    // health < thresh (Select thresholds, Count, Sum)
}

type arena struct {
	w      *engine.World
	c      *engine.Compiled
	opts   engine.Options
	reg    *views.Registry
	subs   []arenaSub
	tr     *tracer
	deltas int64
}

func buildArena(seed int64, tr *tracer) (*arena, error) {
	c, err := loadScenario("arena", core.SrcArena, tr)
	if err != nil {
		return nil, err
	}
	a := &arena{c: c, tr: tr, opts: engine.Options{Workers: workers()}}
	if a.w, err = engine.NewFromCompiled(c, a.opts); err != nil {
		return nil, err
	}
	ph := physics.New2D(physics.Config{
		Class: "Fighter", XAttr: "x", YAttr: "y",
		VXEffect: "vx", VYEffect: "vy", MaxSpeed: 4,
	})
	if err := a.w.Register(&timedComponent{inner: ph, span: "physics.update", tr: tr}); err != nil {
		return nil, err
	}
	s := tr.begin("core.populate")
	_, err = core.PopulateArena(a.w, arenaFighters, arenaHot, arenaMovers, seed)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	a.reg = views.New(a.w, plan.DefaultCosts())

	// E21's spectator mix: 85% camera interest boxes scattered over the
	// map, 10% health-threshold watchers, 5% scoreboard aggregates.
	side := core.ArenaSide(arenaFighters)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	s = tr.begin("views.subscribe")
	for i := 0; i < arenaSubs; i++ {
		var def views.Def
		var as arenaSub
		switch {
		case i%20 < 17:
			cx, cy := rng.Float64()*side, rng.Float64()*side
			pred, err := views.InterestPred([]string{"x", "y"}, []float64{cx, cy}, arenaRadius)
			if err != nil {
				return nil, err
			}
			as.box = [4]float64{cx - arenaRadius, cx + arenaRadius, cy - arenaRadius, cy + arenaRadius}
			def = views.Def{Class: "Fighter", Pred: pred, Payload: []string{"x", "y", "health"}}
		case i%20 < 19:
			as.thresh = float64(20 + rng.Intn(60))
			def = views.Def{Class: "Fighter", Pred: fmt.Sprintf("health < %g", as.thresh),
				Payload: []string{"health"}}
		default:
			switch i % 3 {
			case 0:
				as.thresh = 50
				def = views.Def{Class: "Fighter", Pred: "health < 50", Kind: views.Count}
			case 1:
				as.thresh = 100
				def = views.Def{Class: "Fighter", Pred: "health < 100", Kind: views.Sum, Attr: "health"}
			default:
				def = views.Def{Class: "Fighter", Pred: "true", Kind: views.TopK, Attr: "health", K: 10}
			}
		}
		sub, err := a.reg.Subscribe(def)
		if err != nil {
			return nil, err
		}
		as.sub = sub
		a.subs = append(a.subs, as)
	}
	tr.end(s)

	// Warm-up: the initial resync rescan plus two maintained frames.
	for i := 0; i < arenaWarm; i++ {
		if err := a.frame(false); err != nil {
			return nil, err
		}
	}
	return a, nil
}

func (a *arena) sink(*views.Delta) { a.deltas++ }

// frame is one closed-loop frame: the tick, then the spectators' deltas.
func (a *arena) frame(traced bool) error {
	a.tr.on = traced
	s := a.tr.begin("engine.tick")
	err := a.w.RunTick()
	a.tr.end(s)
	if err != nil {
		return err
	}
	s = a.tr.begin("views.apply")
	a.reg.Apply(a.sink)
	a.tr.end(s)
	return nil
}

func runArena(cfg runConfig) (*report, error) {
	r := newReport()
	a, walls, setupSpans, err := repeatSetup(cfg.trace, func(tr *tracer) (*arena, error) {
		return buildArena(cfg.seed, tr)
	})
	if err != nil {
		return nil, err
	}
	r.setupMetrics(walls, setupSpans)

	var deltaBytes int64
	c, err := runClosed(r, cfg, a.w, a.tr, arenaFighters, func(traced bool) error {
		err := a.frame(traced)
		if traced {
			deltaBytes += a.reg.DeltaBytes()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	r.samples["warmup_ticks"] = arenaWarm
	r.samples["deltas_delivered"] = int(a.deltas)
	a.check(r)
	if err := c.finish(r, a.w, a.c, a.opts, "Fighter"); err != nil {
		return nil, err
	}
	if cfg.trace {
		total, n := c.layers(r, c.win.windowTicks()*int64(len(a.w.SiteStrategies())), 0, "engine.tick", "views.apply")
		r.layer["physics.update_ms"] = float64(total["physics.update"]) / n / 1e6
		r.layer["views.apply_ms"] = float64(total["views.apply"]) / n / 1e6
		r.layer["views.delta_bytes"] = float64(deltaBytes) / n
	}
	return r, nil
}

// check evaluates every subscription from scratch over the final state and
// compares it with what the registry maintained.
func (a *arena) check(r *report) {
	ids := a.w.IDs("Fighter")
	r.check("arena.fighter_count", len(ids) == arenaFighters, "%d fighters, want %d", len(ids), arenaFighters)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	xs := make([]float64, len(ids))
	ys := make([]float64, len(ids))
	hs := make([]float64, len(ids))
	for i, id := range ids {
		xs[i] = a.w.MustGet("Fighter", id, "x").AsNumber()
		ys[i] = a.w.MustGet("Fighter", id, "y").AsNumber()
		hs[i] = a.w.MustGet("Fighter", id, "health").AsNumber()
	}
	bad := 0
	first := ""
	for _, s := range a.subs {
		def := s.sub.Def()
		var ok bool
		switch def.Kind {
		case views.Select:
			var want []value.ID
			for i, id := range ids {
				in := hs[i] < s.thresh
				if def.Payload[0] == "x" {
					in = xs[i] >= s.box[0] && xs[i] <= s.box[1] && ys[i] >= s.box[2] && ys[i] <= s.box[3]
				}
				if in {
					want = append(want, id)
				}
			}
			got := s.sub.Members()
			ok = len(got) == len(want)
			for i := 0; ok && i < len(got); i++ {
				ok = got[i] == want[i]
			}
		case views.Count:
			c := 0
			for _, h := range hs {
				if h < s.thresh {
					c++
				}
			}
			ok = s.sub.Agg() == float64(c)
		case views.Sum:
			sum := 0.0
			for _, h := range hs {
				if h < s.thresh {
					sum += h
				}
			}
			ok = s.sub.Agg() == sum
		case views.TopK:
			top := make([]views.TopEntry, len(ids))
			for i, id := range ids {
				top[i] = views.TopEntry{ID: id, Key: hs[i]}
			}
			sort.SliceStable(top, func(i, j int) bool { return top[i].Key > top[j].Key })
			top = top[:min(def.K, len(top))]
			got := s.sub.Top()
			ok = len(got) == len(top)
			for i := 0; ok && i < len(got); i++ {
				ok = got[i] == top[i]
			}
		}
		if !ok {
			bad++
			if first == "" {
				first = fmt.Sprintf("sub %d (%s)", s.sub.ID(), def.Pred)
			}
		}
	}
	r.check("arena.views_match_scratch", bad == 0, "%d of %d subscriptions differ from a scratch evaluation, first %s",
		bad, len(a.subs), first)
}
