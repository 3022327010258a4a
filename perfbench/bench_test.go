package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/stats"
)

var testBase = time.Now()

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 200)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{
		{50, 100}, {95, 190}, {99, 198}, {100, 200}, {0.1, 1},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v of 1..200 = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10, 0}, {20, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9},
	} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if got > 0 && beyond(c.n, got) < minTail {
			t.Errorf("n=%d: p%v has only %d samples beyond", c.n, got, beyond(c.n, got))
		}
	}
}

// The expected values are Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 2, 7.75}, [3]float64{1.625, 3.5, 8.375}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{name: "engine.tick", start: 0, end: 100, parent: -1},
		{name: "physics.update", start: 10, end: 30, parent: 0},
		{name: "txn.admit", start: 20, end: 40, parent: 0}, // overlaps physics: 10..40 covered once
		{name: "x", start: 90, end: 120, parent: 0},        // clipped to the parent: 90..100
		{name: "y", start: 25, end: 35, parent: 2},         // a grandchild does not count for the root
		{name: "views.apply", start: 100, end: 150, parent: -1},
	}
	want := []int64{100 - 30 - 10, 20, 10, 30, 10, 50}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
	total, self, count := spanTotals(spans)
	if total["engine.tick"] != 100 || self["engine.tick"] != 60 || count["views.apply"] != 1 {
		t.Errorf("totals %v self %v count %v", total, self, count)
	}
	if ok, n := nestedIn(spans, "y", "engine.tick"); !ok || n != 1 {
		t.Errorf("y nested in engine.tick = %v over %d spans", ok, n)
	}
	if ok, _ := nestedIn(spans, "views.apply", "engine.tick"); ok {
		t.Error("a root span reported as nested")
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer(testBase)
	s := tr.begin("engine.tick")
	tr.end(s)
	tr.add("server.wait", 0, 1)
	if len(tr.spans) != 0 {
		t.Fatalf("tracer off recorded %d spans", len(tr.spans))
	}
	tr.on = true
	outer := tr.begin("engine.tick")
	inner := tr.begin("txn.admit")
	tr.end(inner)
	tr.end(outer)
	if tr.spans[inner].parent != outer || tr.cur != -1 {
		t.Fatalf("nesting lost: %+v cur %d", tr.spans, tr.cur)
	}
}

// fakeWorld stands in for an engine world: each tick adds fixed amounts
// to its counters, more during warm-up (first ticks rebuild indexes).
type fakeWorld struct {
	tick int64
	c    stats.ExecCounters
}

func (f *fakeWorld) runTick(warm bool) {
	f.tick++
	if warm {
		f.c.IndexBuildNanos += 50
	} else {
		f.c.IndexBuildNanos += 7
	}
	f.c.JoinProbeRows += 3
	f.c.FusedOps = 12 // a gauge: set, not accumulated
}

// TestWindowExcludesWarmup pins the divisor: a per-tick layer figure is
// the counter delta over the window divided by the window's own ticks.
// Dividing the whole run's total by the window's ticks — charging warm-up
// work to the window — is the defect this guards against.
func TestWindowExcludesWarmup(t *testing.T) {
	f := &fakeWorld{}
	for i := 0; i < 4; i++ {
		f.runTick(true)
	}
	var w window
	w.open(f.tick, f.c)
	for i := 0; i < 10; i++ {
		f.runTick(false)
	}
	w.close(f.tick, f.c)
	d := w.delta()
	r := newReport()
	r.execLayers(d, w.windowTicks(), 0, 0)
	if got := r.layer["index.build_ms"]; got != 7/1e6 {
		t.Fatalf("index build per tick = %v ms, want 7 ns", got)
	}
	if wrong := float64(f.c.IndexBuildNanos) / float64(w.windowTicks()); wrong == 7 {
		t.Fatal("the run total divided by window ticks should not give the per-tick cost here")
	}
	if got := r.layer["join.probe_rows"]; got != 3 {
		t.Fatalf("probes per tick = %v, want 3", got)
	}
	if got := r.layer["vexpr.fused_ops"]; got != 12 {
		t.Fatalf("gauge FusedOps = %v, want its value at the window's end (12)", got)
	}
	sum := execSum(d, d)
	if sum.JoinProbeRows != 60 {
		t.Fatalf("execSum probes = %d, want 60", sum.JoinProbeRows)
	}
}

func TestTracedIndexIsHalfAndIgnoresParity(t *testing.T) {
	var even, odd int
	for i := int64(0); i < 10000; i++ {
		if tracedIndex(i) {
			if i%2 == 0 {
				even++
			} else {
				odd++
			}
		}
	}
	for _, n := range []int{even, odd} {
		if n < 2300 || n > 2700 {
			t.Fatalf("traced %d even and %d odd indexes of 10000, want about 2500 each", even, odd)
		}
	}
}

func TestVerdict(t *testing.T) {
	old := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	slower := []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}
	same := []float64{100, 100, 101, 99, 100, 101, 99, 100, 102, 98}
	for _, c := range []struct {
		cur  []float64
		want string
	}{{faster, "gain"}, {slower, "regression"}, {same, "no change"}} {
		if got, _ := verdict(old, c.cur, true, 0.1); got != c.want {
			t.Errorf("verdict = %s, want %s", got, c.want)
		}
	}
	noisy := []float64{60, 140, 70, 130, 100, 90, 110, 80, 120, 100}
	if got, _ := verdict(old, noisy, true, 0.1); got != "unresolved" {
		t.Errorf("noisy verdict = %s, want unresolved", got)
	}
	if got, won := verdict(old, faster, false, 0.1); got != "regression" || won != 0 {
		t.Errorf("higher-is-better verdict = %s won %v, want regression won 0", got, won)
	}
}
