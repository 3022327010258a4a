package main

import (
	"reflect"
	"runtime"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/stats"
)

// span is one timed call into a module: name, start and end in
// nanoseconds since the tracer's base, and the index of the span that was
// open when it began (-1 for a root).
type span struct {
	name       string
	start, end int64
	parent     int
}

// tracer keeps spans in memory for one single-threaded caller (the closed
// loop, or one server world whose ticks its lock serializes). While on is
// false, begin and end record nothing, so the same call sites serve the
// untraced run.
type tracer struct {
	on    bool
	base  time.Time
	spans []span
	cur   int
}

func newTracer(base time.Time) *tracer { return &tracer{base: base, cur: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span as a child of the currently open one and returns its
// index, or -1 when tracing is off.
func (t *tracer) begin(name string) int {
	if t == nil || !t.on {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: t.now(), parent: t.cur})
	t.cur = len(t.spans) - 1
	return t.cur
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	t.spans[i].end = t.now()
	t.cur = t.spans[i].parent
}

// add records an already-measured root span (such as a queue wait that
// began before the tracer could see it).
func (t *tracer) add(name string, start, end int64) {
	if t == nil || !t.on {
		return
	}
	t.spans = append(t.spans, span{name: name, start: start, end: end, parent: -1})
}

// tracedIndex decides whether frame or tick i of a traced run is traced.
// Half are, chosen by a hash of i rather than by parity: a cost that
// recurs every second frame (a collection triggered by each frame's
// allocations, say) would otherwise land on one side and pass for
// tracing overhead.
func tracedIndex(i int64) bool {
	z := uint64(i) + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return (z^z>>31)&1 == 1
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		covered := int64(0)
		ch := kids[i]
		sort.Slice(ch, func(a, b int) bool { return spans[ch[a]].start < spans[ch[b]].start })
		lo, hi := int64(0), int64(-1)
		for _, c := range ch {
			cs, ce := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if ce <= cs {
				continue
			}
			if cs > hi {
				if hi > lo {
					covered += hi - lo
				}
				lo, hi = cs, ce
			} else if ce > hi {
				hi = ce
			}
		}
		if hi > lo {
			covered += hi - lo
		}
		out[i] = s.end - s.start - covered
	}
	return out
}

// spanTotals sums the duration and the self time of the spans per name.
func spanTotals(spans []span) (total, self map[string]int64, count map[string]int) {
	total, self, count = map[string]int64{}, map[string]int64{}, map[string]int{}
	st := selfTimes(spans)
	for i, s := range spans {
		total[s.name] += s.end - s.start
		self[s.name] += st[i]
		count[s.name]++
	}
	return total, self, count
}

// nestedIn reports whether every span named child has an ancestor named
// parent, and how many child spans there were.
func nestedIn(spans []span, child, parent string) (bool, int) {
	n := 0
	for _, s := range spans {
		if s.name != child {
			continue
		}
		n++
		found := false
		for p := s.parent; p >= 0; p = spans[p].parent {
			if spans[p].name == parent {
				found = true
				break
			}
		}
		if !found {
			return false, n
		}
	}
	return true, n
}

// timedComponent delegates to a registered update component and records
// its Update as a span.
type timedComponent struct {
	inner engine.UpdateComponent
	span  string
	tr    *tracer
}

func (c *timedComponent) Name() string { return c.inner.Name() }

func (c *timedComponent) Update(ctx *engine.UpdateCtx) error {
	s := c.tr.begin(c.span)
	err := c.inner.Update(ctx)
	c.tr.end(s)
	return err
}

// timedPolicy delegates admission to engine.GreedyPolicy (so the engine's
// own batched/serial choice is unchanged), records Admit as a span and
// tallies outcomes, which the output checks use.
type timedPolicy struct {
	tr                           *tracer
	submitted, committed, aborts int64
}

func (p *timedPolicy) Admit(ctx *engine.UpdateCtx, txns []*engine.Txn) error {
	s := p.tr.begin("txn.admit")
	err := engine.GreedyPolicy{}.Admit(ctx, txns)
	p.tr.end(s)
	if err != nil {
		return err
	}
	p.submitted += int64(len(txns))
	for _, t := range txns {
		if t.Aborted {
			p.aborts++
		} else {
			p.committed++
		}
	}
	return nil
}

// execGauges are the ExecCounters fields that hold a current level rather
// than a running total; a window reports their value at its end.
var execGauges = map[string]bool{"FusedOps": true, "ViewSubs": true, "EpochID": true}

// execDelta returns b - a field by field for running totals, and b's
// value for gauges.
func execDelta(a, b stats.ExecCounters) stats.ExecCounters {
	var d stats.ExecCounters
	va, vb, vd := reflect.ValueOf(a), reflect.ValueOf(b), reflect.ValueOf(&d).Elem()
	for i := 0; i < vd.NumField(); i++ {
		if execGauges[vd.Type().Field(i).Name] {
			vd.Field(i).SetInt(vb.Field(i).Int())
		} else {
			vd.Field(i).SetInt(vb.Field(i).Int() - va.Field(i).Int())
		}
	}
	return d
}

// execSum adds running totals and gauges field by field (for summing one
// window over many worlds).
func execSum(a, b stats.ExecCounters) stats.ExecCounters {
	var d stats.ExecCounters
	va, vb, vd := reflect.ValueOf(a), reflect.ValueOf(b), reflect.ValueOf(&d).Elem()
	for i := 0; i < vd.NumField(); i++ {
		vd.Field(i).SetInt(va.Field(i).Int() + vb.Field(i).Int())
	}
	return d
}

// window is the timed window's counter snapshot. Every per-tick layer
// figure divides a delta taken between open and close by the ticks run
// between the same two points, so warm-up work is never charged to the
// window.
type window struct {
	ticks0, ticks int64
	exec0, exec   stats.ExecCounters
	mem0, mem     runtime.MemStats
	wall0, wall   time.Time
}

// open snapshots the program counters at the start of the window.
func (w *window) open(ticks int64, exec stats.ExecCounters) {
	w.ticks0, w.exec0 = ticks, exec
	runtime.ReadMemStats(&w.mem0)
	w.wall0 = time.Now()
}

// close snapshots the program counters at the end of the window.
func (w *window) close(ticks int64, exec stats.ExecCounters) {
	w.wall = time.Now()
	runtime.ReadMemStats(&w.mem)
	w.ticks, w.exec = ticks, exec
}

func (w *window) windowTicks() int64        { return w.ticks - w.ticks0 }
func (w *window) delta() stats.ExecCounters { return execDelta(w.exec0, w.exec) }
func (w *window) seconds() float64          { return w.wall.Sub(w.wall0).Seconds() }

// gcCycles and gcPauseMs are the collector's work inside the window.
func (w *window) gcCycles() float64 { return float64(w.mem.NumGC - w.mem0.NumGC) }
func (w *window) gcPauseMs() float64 {
	return float64(w.mem.PauseTotalNs-w.mem0.PauseTotalNs) / 1e6
}
