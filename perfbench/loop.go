package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sgl/parser"
	"repro/internal/sgl/sem"
)

// setups is how many times a run builds its world; setup_s is their
// median and the last build is the one measured.
const setups = 5

// wakes is how many times a closed-loop run restores its world from a
// checkpoint after the window (after one untimed restore that faults in
// fresh memory); wake_ms_p50 is their median.
const wakes = 21

// workers is the engine or server pool size: two, or fewer on a smaller
// machine.
func workers() int { return min(2, runtime.NumCPU()) }

// loadScenario parses, checks and compiles src through each module's
// public entry point, one span per step.
func loadScenario(name, src string, tr *tracer) (*engine.Compiled, error) {
	s := tr.begin("parser.parse")
	p, err := parser.Parse(src)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", name, err)
	}
	s = tr.begin("sem.analyze")
	info, err := sem.Analyze(p)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("analyze %s: %w", name, err)
	}
	s = tr.begin("compile.compile")
	prog, err := compile.CompileChecked(info)
	tr.end(s)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", name, err)
	}
	sc := &core.Scenario{Name: name, Info: info, Prog: prog}
	s = tr.begin("engine.compile")
	c := sc.Compiled(false)
	tr.end(s)
	return c, nil
}

// repeatSetup builds a workload's state `setups` times and keeps the last.
// It returns each build's wall time and per-span totals (empty unless
// tracing).
func repeatSetup[T any](trace bool, build func(tr *tracer) (T, error)) (T, []time.Duration, []map[string]int64, error) {
	var st T
	var walls []time.Duration
	var spans []map[string]int64
	for i := 0; i < setups; i++ {
		var zero T
		st = zero
		runtime.GC()
		tr := newTracer(time.Now())
		tr.on = trace
		start := time.Now()
		var err error
		st, err = build(tr)
		if err != nil {
			return st, nil, nil, err
		}
		walls = append(walls, time.Since(start))
		total, _, _ := spanTotals(tr.spans)
		spans = append(spans, total)
	}
	return st, walls, spans, nil
}

// closedRun is the timed window of a closed-loop workload: one world,
// frames back to back, half of them traced in a traced run.
type closedRun struct {
	trace  bool
	tr     *tracer
	frames []time.Duration
	win    window
	allocs uint64 // allocations inside the traced frames
}

func (c *closedRun) traced(i int) bool { return c.trace && tracedIndex(int64(i)) }

// runClosed measures the window: frame latencies, throughput in objects
// per second, and the program counters over exactly the window.
func runClosed(r *report, cfg runConfig, w *engine.World, tr *tracer, objects int, frame func(traced bool) error) (*closedRun, error) {
	c := &closedRun{trace: cfg.trace, tr: tr}
	tr.spans = tr.spans[:0]
	tr.base = time.Now()
	c.win.open(w.Tick(), w.ExecStats())
	frames, err := closedLoop(cfg.duration, func(i int) error {
		n, err := tickAllocs(c.traced(i), func() error { return frame(c.traced(i)) })
		c.allocs += n
		return err
	})
	c.win.close(w.Tick(), w.ExecStats())
	c.frames = frames
	r.attempted += int64(len(frames))
	if err != nil {
		return nil, err
	}
	if err := r.frameMetrics(frames); err != nil {
		return nil, err
	}
	r.e2e["obj_ticks_per_s"] = float64(objects) * float64(c.win.windowTicks()) / c.win.seconds()
	r.samples["window_ticks"] = int(c.win.windowTicks())
	return c, nil
}

// finish reports the live heap after the window and the time to wake a
// world of this size from its checkpoint.
func (c *closedRun) finish(r *report, w *engine.World, comp *engine.Compiled, opts engine.Options, class string) error {
	r.e2e["heap_mb"] = liveHeapMB()
	ws, err := timeWakes(w, comp, opts, class)
	if err != nil {
		return err
	}
	r.attempted += int64(len(ws))
	r.wakeMetric(ws)
	return nil
}

// layers reports the per-layer metrics the closed-loop workloads share
// and returns the span totals per name and the traced tick count.
// covering names the root spans that should cover the whole frame.
func (c *closedRun) layers(r *report, siteTicks int64, parts int, covering ...string) (map[string]int64, float64) {
	total, self, count := spanTotals(c.tr.spans)
	n := float64(count["engine.tick"])
	r.layer["engine.tick_ms"] = float64(total["engine.tick"]) / n / 1e6
	r.layer["engine.tick_self_ms"] = float64(self["engine.tick"]) / n / 1e6
	r.layer["engine.allocs_per_tick"] = float64(c.allocs) / n
	r.execLayers(c.win.delta(), c.win.windowTicks(), siteTicks, parts)
	r.runtimeLayers(&c.win)

	var on, off []time.Duration
	var tracedTime time.Duration
	for i, f := range c.frames {
		if c.traced(i) {
			on = append(on, f)
			tracedTime += f
		} else {
			off = append(off, f)
		}
	}
	r.layer["trace.overhead_ms"] = percentile(msSorted(on), 50) - percentile(msSorted(off), 50)
	r.samples["traced_frames"] = len(on)
	var covered int64
	for _, name := range covering {
		covered += total[name]
	}
	r.layer["trace.span_coverage"] = ratio(float64(covered), float64(tracedTime))
	return total, n
}

// closedLoop runs frames back to back for the given duration; each frame
// is due the moment the previous one is delivered, so its latency is its
// wall time. frame receives the frame index.
func closedLoop(d time.Duration, frame func(i int) error) ([]time.Duration, error) {
	frames := make([]time.Duration, 0, 1024)
	stop := time.Now().Add(d)
	for i := 0; ; i++ {
		start := time.Now()
		if !start.Before(stop) {
			return frames, nil
		}
		if err := frame(i); err != nil {
			return frames, fmt.Errorf("frame %d: %w", i, err)
		}
		frames = append(frames, time.Since(start))
	}
}

// liveHeapMB is the heap in use after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// timeWakes checkpoints w and restores the checkpoint into a fresh world
// `wakes` times — the work of waking a hibernated world of this size. It
// returns the restore wall times.
func timeWakes(w *engine.World, c *engine.Compiled, opts engine.Options, class string) ([]time.Duration, error) {
	cp, err := w.Checkpoint()
	if err != nil {
		return nil, err
	}
	var out []time.Duration
	for i := 0; i <= wakes; i++ {
		runtime.GC()
		start := time.Now()
		nw, err := engine.NewFromCompiled(c, opts)
		if err == nil {
			err = nw.Restore(cp)
		}
		if i > 0 {
			out = append(out, time.Since(start))
		}
		if err != nil {
			return nil, fmt.Errorf("wake: %w", err)
		}
		if nw.Count(class) != w.Count(class) || nw.Tick() != w.Tick() {
			return nil, fmt.Errorf("wake: restored %d %s at tick %d, want %d at tick %d",
				nw.Count(class), class, nw.Tick(), w.Count(class), w.Tick())
		}
	}
	return out, nil
}

// allocSamples are the runtime's cumulative heap allocation counts; read
// through runtime/metrics they cost no stop-the-world, unlike
// runtime.ReadMemStats.
var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/tiny/allocs:objects"},
}

func allocCount() uint64 {
	metrics.Read(allocSamples)
	return allocSamples[0].Value.Uint64() + allocSamples[1].Value.Uint64()
}

// tickAllocs wraps one call with a read of the process allocation count
// when tracing; it returns the allocations the call made (0 untraced).
func tickAllocs(on bool, fn func() error) (uint64, error) {
	if !on {
		return 0, fn()
	}
	a := allocCount()
	err := fn()
	return allocCount() - a, err
}
