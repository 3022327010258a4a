package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/physics"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/views"
	"repro/internal/workload"
)

// Fleet workload shape: many small worlds served open loop, a fifth of
// them churned through hibernation, plus one physics world.
const (
	fleetFig2        = 40
	fleetMarket      = 40
	fleetChurned     = 16 // half Fig. 2, half market
	fleetObjects     = 200
	fleetPeriod      = 50 * time.Millisecond
	fleetChurnPeriod = 250 * time.Millisecond
	fleetWarm        = 3
	// fleetLead is how long Serve runs before the latency window opens,
	// fleetTail how long it keeps running after the window closes so that
	// every tick due inside the window can be delivered.
	fleetLead = time.Second
	fleetTail = 500 * time.Millisecond
	// fleetHorizon bounds the ticks a fleet market world can run: its
	// buyers and sellers carry enough gold and stock to trade every tick.
	fleetHorizon = 1 << 20
)

// fleetWorld is one hosted world and what the benchmark observes of it.
type fleetWorld struct {
	h         *server.World
	kind      string // "fig2", "market" or "rts"
	churned   bool
	startTick int64
	tr        *tracer      // inspected (never-churned) worlds, trace runs only
	pol       *timedPolicy // never-churned market worlds
	sub0      int64        // pol's submissions and commits when Serve started
	com0      int64
	tickSpan  int

	// mu guards the fields below: the view sink writes them on a pool
	// worker, the churn loop reads and arms them between ticks.
	mu          sync.Mutex
	ticks       []int64
	at          []time.Duration // delivery time since Serve started
	bytes       int64
	last        int64
	gaps        int
	wakePending bool
	resumes     int
	resumeBad   int
}

// TickStart and TickEnd make an inspected world's tick a traced span, with
// the queue wait before it, on the tick indexes (since Serve started) that
// tracedIndex picks.
func (f *fleetWorld) TickStart(_ *engine.World, tick int64) {
	k := tick - f.startTick
	f.tr.on = k >= 0 && tracedIndex(k)
	if !f.tr.on {
		return
	}
	f.tr.add("server.wait", k*int64(fleetPeriod), f.tr.now())
	f.tickSpan = f.tr.begin("engine.tick")
}

func (f *fleetWorld) TickEnd(*engine.World, int64) {
	if f.tr.on {
		f.tr.end(f.tickSpan)
	}
}

// sink receives the world's view deltas; its call time is when the tick's
// result reached the spectator.
func (f *fleetWorld) sink(base *time.Time) func(d *views.Delta) {
	return func(d *views.Delta) {
		now := time.Since(*base)
		f.mu.Lock()
		defer f.mu.Unlock()
		f.ticks = append(f.ticks, d.Tick)
		f.at = append(f.at, now)
		f.bytes += d.Bytes()
		if f.wakePending {
			f.wakePending = false
			f.resumes++
			if !d.Resync || d.Tick != f.last+1 {
				f.resumeBad++
			}
		}
		if f.last != 0 && d.Tick != f.last+1 {
			f.gaps++
		}
		f.last = d.Tick
	}
}

type fleet struct {
	srv    *server.Server
	worlds []*fleetWorld
	rts    *fleetWorld
	base   time.Time // Serve start; the nominal schedule's origin
}

func (fl *fleet) add(tr *tracer, id, src, kind string, churned, trace bool) (*fleetWorld, *engine.World, error) {
	s := tr.begin("server.add_world")
	h, err := fl.srv.AddWorld(id, src, 1)
	tr.end(s)
	if err != nil {
		return nil, nil, err
	}
	eng, err := h.Engine()
	if err != nil {
		return nil, nil, err
	}
	f := &fleetWorld{h: h, kind: kind, churned: churned}
	if trace && !churned {
		f.tr = newTracer(time.Now())
		eng.AddInspector(f)
	}
	fl.worlds = append(fl.worlds, f)
	return f, eng, nil
}

func buildFleet(seed int64, trace bool, tr *tracer) (*fleet, error) {
	fl := &fleet{srv: server.New(server.Config{Workers: workers(), TickPeriod: fleetPeriod})}
	rng := rand.New(rand.NewSource(seed))
	churn := map[int]bool{}
	for _, i := range rng.Perm(fleetFig2)[:fleetChurned/2] {
		churn[i] = true
	}
	for _, i := range rng.Perm(fleetMarket)[:fleetChurned/2] {
		churn[fleetFig2+i] = true
	}
	subscribe := func(f *fleetWorld, def views.Def) error {
		s := tr.begin("views.subscribe")
		defer tr.end(s)
		reg, err := f.h.Views()
		if err != nil {
			return err
		}
		_, err = reg.Subscribe(def)
		f.h.SetViewSink(f.sink(&fl.base))
		return err
	}
	for i := 0; i < fleetFig2; i++ {
		f, eng, err := fl.add(tr, fmt.Sprintf("fig2-%02d", i), core.SrcFig2, "fig2", churn[i], trace)
		if err != nil {
			return nil, err
		}
		s := tr.begin("core.populate")
		_, err = core.PopulateUnits(eng, workload.Clustered(fleetObjects, 4, 15, 200, 200, seed+int64(i)), 10)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		if err := subscribe(f, views.Def{Class: "Unit", Kind: views.Sum, Attr: "health"}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < fleetMarket; i++ {
		f, eng, err := fl.add(tr, fmt.Sprintf("market-%02d", i), core.SrcMarket, "market", churn[fleetFig2+i], trace)
		if err != nil {
			return nil, err
		}
		if !f.churned {
			// A churned world wakes without its policy (the recorded wake
			// defect), so only resident worlds carry the timing wrapper.
			f.pol = &timedPolicy{tr: f.tr}
			eng.SetTxnPolicy(f.pol)
		}
		s := tr.begin("core.populate")
		_, _, err = core.PopulateMarket(eng, workload.Market{Sellers: fleetObjects / 2, BuyersPerItem: 1,
			Stock: fleetHorizon, Price: marketPrice, Gold: marketPrice * fleetHorizon})
		tr.end(s)
		if err != nil {
			return nil, err
		}
		if err := subscribe(f, views.Def{Class: "Trader", Pred: "wants > 0", Kind: views.Sum, Attr: "gold"}); err != nil {
			return nil, err
		}
	}
	f, eng, err := fl.add(tr, "rts", core.SrcRTS, "rts", false, trace)
	if err != nil {
		return nil, err
	}
	fl.rts = f
	ph := physics.New2D(physics.Config{Class: "Soldier", XAttr: "x", YAttr: "y",
		VXEffect: "vx", VYEffect: "vy", MaxSpeed: 4})
	if err := eng.Register(&timedComponent{inner: ph, span: "physics.update", tr: f.tr}); err != nil {
		return nil, err
	}
	s := tr.begin("core.populate")
	_, err = core.PopulateSoldiers(eng, workload.Clustered(fleetObjects, 2, 20, 300, 300, seed))
	tr.end(s)
	if err != nil {
		return nil, err
	}
	if err := subscribe(f, views.Def{Class: "Soldier", Kind: views.Sum, Attr: "health"}); err != nil {
		return nil, err
	}

	if err := fl.srv.RunRounds(fleetWarm); err != nil {
		return nil, err
	}
	for _, f := range fl.worlds {
		eng, err := f.h.Engine()
		if err != nil {
			return nil, err
		}
		f.startTick = eng.Tick()
	}
	return fl, nil
}

// churnEvent toggles one churned world: hibernate if resident, else wake.
type churnEvent struct {
	at time.Duration
	f  *fleetWorld
}

// churnSchedule gives each churned world a seeded phase inside the churn
// period; it then toggles once per period until Serve stops.
func churnSchedule(fl *fleet, seed int64, until time.Duration) []churnEvent {
	rng := rand.New(rand.NewSource(seed ^ 0xc4a2))
	var ev []churnEvent
	for _, f := range fl.worlds {
		if !f.churned {
			continue
		}
		phase := time.Duration(rng.Int63n(int64(fleetChurnPeriod)))
		for t := phase + fleetChurnPeriod; t < until; t += fleetChurnPeriod {
			ev = append(ev, churnEvent{at: t, f: f})
		}
	}
	sort.SliceStable(ev, func(i, j int) bool { return ev[i].at < ev[j].at })
	return ev
}

// execTotals sums the counters and ticks of the inspected worlds.
func (fl *fleet) execTotals() (stats.ExecCounters, int64, int64, error) {
	var sum stats.ExecCounters
	var ticks, siteTicks int64
	for _, f := range fl.worlds {
		if f.churned {
			continue
		}
		eng, err := f.h.Engine()
		if err != nil {
			return sum, 0, 0, err
		}
		sum = execSum(sum, eng.ExecStats())
		ticks += eng.Tick()
		siteTicks += eng.Tick() * int64(len(eng.SiteStrategies()))
	}
	return sum, ticks, siteTicks, nil
}

func runFleet(cfg runConfig) (*report, error) {
	r := newReport()
	fl, walls, setupSpans, err := repeatSetup(cfg.trace, func(tr *tracer) (*fleet, error) {
		return buildFleet(cfg.seed, cfg.trace, tr)
	})
	if err != nil {
		return nil, err
	}
	r.setupMetrics(walls, setupSpans)
	c0 := fl.srv.Counters()
	r.layer["server.plan_cache_hit_ratio"] = ratio(float64(c0.PlanCacheHits), float64(c0.PlanCacheHits+c0.PlanCacheMisses))

	exec0, ticks0, sites0, err := fl.execTotals()
	if err != nil {
		return nil, err
	}
	for _, f := range fl.worlds {
		if f.pol != nil {
			f.sub0, f.com0 = f.pol.submitted, f.pol.committed
		}
	}
	served := fleetLead + cfg.duration + fleetTail
	events := churnSchedule(fl, cfg.seed, served)
	var win window
	win.open(0, stats.ExecCounters{})

	ctx, cancel := context.WithCancel(context.Background())
	fl.base = time.Now()
	for _, f := range fl.worlds {
		if f.tr != nil {
			f.tr.base = fl.base
		}
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- fl.srv.Serve(ctx) }()
	resident := map[*fleetWorld]bool{}
	for _, f := range fl.worlds {
		resident[f] = true
	}
	var hibs, wakes []time.Duration
	for _, e := range events {
		time.Sleep(time.Until(fl.base.Add(e.at)))
		start := time.Now()
		if resident[e.f] {
			err = e.f.h.Hibernate()
			hibs = append(hibs, time.Since(start))
			// Armed only once Hibernate returned: a tick in flight when it
			// was called has delivered by then, and a hibernated world
			// delivers nothing until it is woken.
			e.f.mu.Lock()
			e.f.wakePending = true
			e.f.mu.Unlock()
		} else {
			err = e.f.h.Touch()
			wakes = append(wakes, time.Since(start))
		}
		r.op(err)
		resident[e.f] = !resident[e.f]
	}
	time.Sleep(time.Until(fl.base.Add(served)))
	cancel()
	err = <-serveErr
	stopAt := time.Since(fl.base)
	win.close(0, stats.ExecCounters{})
	if !errors.Is(err, context.Canceled) {
		r.op(err)
	}
	c1 := fl.srv.Counters()

	lateness, tracedLate, untracedLate, undelivered := fl.lateness(cfg.duration, stopAt)
	r.samples["undelivered_in_window"] = undelivered
	if err := r.frameMetrics(lateness); err != nil {
		return nil, err
	}
	r.layer["server.late_ms_p99"] = percentile(msSorted(lateness), 99)
	r.samples["world_ticks_run"] = int(c1.TicksRun - c0.TicksRun)
	r.attempted += c1.TicksRun - c0.TicksRun
	r.e2e["obj_ticks_per_s"] = fl.objTicksPerSecond(cfg.duration)
	r.wakeMetric(wakes)
	r.layer["server.hibernate_ms"] = percentile(msSorted(hibs), 50)
	r.samples["hibernates"] = len(hibs)

	gaps, resumes, resumeBad := 0, 0, 0
	for _, f := range fl.worlds {
		gaps += f.gaps
		resumes += f.resumes
		resumeBad += f.resumeBad
	}
	r.check("fleet.delta_ticks_consecutive", gaps == 0, "%d gaps in delta tick sequences", gaps)
	r.check("fleet.churn_counted", c1.Hibernations-c0.Hibernations == int64(len(hibs)) &&
		c1.Restores-c0.Restores == int64(len(wakes)),
		"server counted %d hibernations and %d restores, churn made %d and %d",
		c1.Hibernations-c0.Hibernations, c1.Restores-c0.Restores, len(hibs), len(wakes))
	r.check("fleet.wake_resumes_at_checkpoint", resumeBad == 0 && resumes > 0,
		"%d of %d wakes did not resume with a resync at the checkpoint tick", resumeBad, resumes)

	if cfg.trace {
		exec1, ticks1, sites1, err := fl.execTotals()
		if err != nil {
			return nil, err
		}
		fl.layers(r, &win, execDelta(exec0, exec1), ticks1-ticks0, sites1-sites0, c0, c1, cfg.duration)
		r.layer["trace.overhead_ms"] = percentile(msSorted(tracedLate), 50) - percentile(msSorted(untracedLate), 50)
		r.samples["traced_frames"] = len(tracedLate)
	}
	r.e2e["heap_mb"] = liveHeapMB()
	fl.probeWakeDefect(r)
	return r, nil
}

// lateness returns, for the never-churned worlds (not the physics world),
// each tick's lateness: from its due time on the nominal schedule (Serve
// start + index × period) to its delivery at the view sink, for ticks due
// inside the window. A tick due in the window but never delivered counts
// as late until Serve stopped. It also splits the lateness by traced and
// untraced tick index.
func (fl *fleet) lateness(d, stopAt time.Duration) (all, traced, untraced []time.Duration, undelivered int) {
	kLo := int64((fleetLead + fleetPeriod - 1) / fleetPeriod)
	kHi := int64((fleetLead + d + fleetPeriod - 1) / fleetPeriod)
	for _, f := range fl.worlds {
		if f.churned || f == fl.rts {
			continue
		}
		at := map[int64]time.Duration{}
		for i, t := range f.ticks {
			at[t] = f.at[i]
		}
		for k := kLo; k < kHi; k++ {
			due := time.Duration(k) * fleetPeriod
			got, ok := at[f.startTick+k+1]
			if !ok {
				undelivered++
				got = stopAt
			}
			all = append(all, got-due)
			if tracedIndex(k) {
				traced = append(traced, got-due)
			} else {
				untraced = append(untraced, got-due)
			}
		}
	}
	return all, traced, untraced, undelivered
}

// objTicksPerSecond counts object-ticks delivered by every world inside
// the window.
func (fl *fleet) objTicksPerSecond(d time.Duration) float64 {
	n := 0
	for _, f := range fl.worlds {
		for _, t := range f.at {
			if t >= fleetLead && t < fleetLead+d {
				n++
			}
		}
	}
	return float64(n*fleetObjects) / d.Seconds()
}

func (fl *fleet) layers(r *report, win *window, d stats.ExecCounters, ticks, siteTicks int64,
	c0, c1 stats.ServerCounters, latWindow time.Duration) {
	// Span indices are per world, so totals are taken per world and summed.
	total, self, count := map[string]int64{}, map[string]int64{}, map[string]int{}
	var tickSpans, waitSpans []time.Duration
	var txnTicks, physTicks int
	var physNs, txnNs int64
	var submitted, committed int64
	var deltaBytes int64
	for _, f := range fl.worlds {
		if f.tr == nil {
			continue
		}
		wt, ws, wc := spanTotals(f.tr.spans)
		for k, v := range wt {
			total[k] += v
			self[k] += ws[k]
			count[k] += wc[k]
		}
		for _, s := range f.tr.spans {
			switch s.name {
			case "engine.tick":
				tickSpans = append(tickSpans, time.Duration(s.end-s.start))
			case "server.wait":
				waitSpans = append(waitSpans, time.Duration(s.end-s.start))
			}
		}
		switch f.kind {
		case "market":
			txnNs += wt["txn.admit"]
			txnTicks += wc["engine.tick"]
			submitted += f.pol.submitted - f.sub0
			committed += f.pol.committed - f.com0
		case "rts":
			physNs += wt["physics.update"]
			physTicks += wc["engine.tick"]
		}
		deltaBytes += f.bytes
	}
	n := float64(count["engine.tick"])
	r.layer["engine.tick_ms"] = float64(total["engine.tick"]) / n / 1e6
	r.layer["engine.tick_self_ms"] = float64(self["engine.tick"]) / n / 1e6
	r.layer["physics.update_ms"] = ratio(float64(physNs), float64(physTicks)) / 1e6
	r.layer["txn.admit_ms"] = ratio(float64(txnNs), float64(txnTicks)) / 1e6
	runTicks := c1.TicksRun - c0.TicksRun
	r.layer["engine.allocs_per_tick"] = ratio(float64(win.mem.Mallocs-win.mem0.Mallocs), float64(runTicks))
	r.execLayers(d, ticks, siteTicks, 0)
	r.txnLayers(submitted, committed, d.TxnCrossPart, win.seconds())
	r.layer["views.apply_ms"] = ratio(float64(d.ViewMaintNanos), float64(ticks)) / 1e6
	r.layer["views.delta_bytes"] = ratio(float64(deltaBytes), float64(ticks))
	ts, wsp := msSorted(tickSpans), msSorted(waitSpans)
	r.layer["server.service_ms_p50"] = percentile(ts, 50)
	r.layer["server.wait_ms_p50"] = percentile(wsp, 50)
	r.layer["server.wait_ms_p99"] = percentile(wsp, 99)
	// Only half the ticks of the inspected worlds are traced: scale their
	// mean service time up to every tick the pool ran.
	r.layer["server.busy_share"] = ratio(float64(total["engine.tick"])/n*float64(runTicks),
		float64(workers())*float64(win.wall.Sub(win.wall0)))
	r.layer["server.lag_ms"] = ratio(float64(c1.TickLagNanos-c0.TickLagNanos), float64(runTicks)) / 1e6
	r.layer["server.deadline_miss_ratio"] = ratio(float64(c1.TickDeadlineMisses-c0.TickDeadlineMisses), float64(runTicks))
	r.runtimeLayers(win)
	r.samples["traced_ticks"] = int(n)
	r.layer["trace.span_coverage"] = fl.coverage(latWindow)
}

// coverage is the share of the traced ticks' lateness that their spans
// cover: from the due time through the queue wait and the tick to its
// end, against due time to delivery, over ticks due inside the window.
func (fl *fleet) coverage(d time.Duration) float64 {
	var covered, late int64
	for _, f := range fl.worlds {
		if f.tr == nil || f == fl.rts {
			continue
		}
		at := map[int64]time.Duration{}
		for i, t := range f.ticks {
			at[t] = f.at[i]
		}
		sp := f.tr.spans
		for i := 0; i+1 < len(sp); i++ {
			if sp[i].name != "server.wait" || sp[i+1].name != "engine.tick" {
				continue
			}
			due := sp[i].start
			k := due / int64(fleetPeriod)
			got, ok := at[f.startTick+k+1]
			if !ok || due < int64(fleetLead) || due >= int64(fleetLead+d) {
				continue
			}
			covered += sp[i+1].end - due
			late += int64(got) - due
		}
	}
	return ratio(float64(covered), float64(late))
}

// probeWakeDefect reproduces the recorded wake defect after the window:
// the physics world is hibernated, woken and ticked once. A woken world is
// rebuilt without the components registered through Engine(), so the
// round fails on the unregistered physics owner. The outcome is stamped,
// not counted as a failed operation of the workload.
func (fl *fleet) probeWakeDefect(r *report) {
	err := fl.rts.h.Hibernate()
	if err == nil {
		err = fl.rts.h.Touch()
	}
	if err == nil {
		err = fl.srv.RunRounds(1)
	}
	reproduced := err != nil && strings.Contains(err.Error(), "unregistered owner components")
	note := map[string]any{"reproduced": reproduced}
	if err != nil {
		note["error"] = err.Error()
	}
	r.notes["known_defect_owner_component_wake"] = note
}
