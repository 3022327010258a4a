package engine

// The morsel driver runs every per-row pass of a tick — the query/effect
// phase, scalar and vectorized update rules, reactive handlers — through one
// loop per row kind and one dispatcher, in the style of Leis et al.,
// "Morsel-Driven Parallelism" (SIGMOD 2014). It exploits the paper's §4.2
// observation: while these passes run, all tables are read-only, so
// per-object work needs no synchronization.
//
// A morsel is a row range [lo, hi) of one class, optionally restricted to
// the rows one partition owns:
//
//   - a serial pass is one inline morsel over the whole extent;
//   - a sharded pass is the batch-aligned shardRows ranges, as many as the
//     parallelism axis (plan.Costs.ChooseWorkers) finds worth fanning out;
//   - a partitioned pass is one ownership-filtered morsel per partition.
//
// Determinism discipline: a pass's lone unpartitioned morsel writes straight
// into the world's effect buffers (directSink). Every other pass stages each
// morsel into its own sink, every emission and transaction tagged with its
// source row, and the fold merges the sinks by source row — the serial row
// loop's order. Every ⊕ accumulator therefore sees its contributions in the
// same order under any worker count, shard count, partition layout or
// schedule, which keeps even inexact float folds bit-identical. Vectorized
// phases emit only to the executing object, so morsels write row-disjoint
// accumulator cells directly and log only their empty→touched transitions.

import (
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/value"
	"repro/internal/vexpr"
)

// morsel is one unit of row work: physical rows [lo, hi) of a class,
// restricted to the rows partition part owns when part >= 0.
type morsel struct {
	lo, hi int
	part   int32
}

// shardRows partitions [0, capRows) into at most maxShards contiguous,
// unpartitioned morsels whose boundaries fall on vexpr.BatchSize multiples,
// so no kernel invocation pays a split batch. buf is reused when capacious
// enough.
func shardRows(capRows, maxShards int, buf []morsel) []morsel {
	buf = buf[:0]
	if capRows <= 0 {
		return buf
	}
	if maxShards < 1 {
		maxShards = 1
	}
	size := (capRows + maxShards - 1) / maxShards
	if rem := size % vexpr.BatchSize; rem != 0 {
		size += vexpr.BatchSize - rem
	}
	for lo := 0; lo < capRows; lo += size {
		hi := lo + size
		if hi > capRows {
			hi = capRows
		}
		buf = append(buf, morsel{lo: lo, hi: hi, part: -1})
	}
	return buf
}

// stepsCost is the crude per-row work weight of a compiled step list used
// by the parallelism axis: lets, ifs and emissions count one unit, accum
// loops count far more because each probes an index (or scans an extent)
// and runs its body per match. It only has to rank extents against the
// fan-out overhead, not predict wall time.
func stepsCost(steps []compile.Step) float64 {
	c := 0.0
	for _, s := range steps {
		switch s := s.(type) {
		case *compile.IfStep:
			c += 1 + stepsCost(s.Then) + stepsCost(s.Else)
		case *compile.AtomicStep:
			c += 1 + stepsCost(s.Body)
		case *compile.AccumStep:
			c += 64 + stepsCost(s.Body)
			if s.Join != nil {
				c += stepsCost(s.Join.Inner)
			}
		default:
			c++
		}
	}
	return c
}

// shardMorsels splits rows [0, capRows) into range morsels: as many shards
// as the parallelism axis finds worth fanning out for the modeled work, one
// when the pool is unavailable.
func (w *World) shardMorsels(capRows int, work float64) []morsel {
	nw := 1
	if w.parallelOK() {
		nw = w.execCosts.ChooseWorkers(w.opts.Workers, work)
	}
	w.morselBuf = shardRows(capRows, nw, w.morselBuf)
	return w.morselBuf
}

// classMorsels splits one class's effect or handler pass: one ownership-
// filtered morsel per partition in a partitioned world, shardMorsels
// otherwise.
func (w *World) classMorsels(rt *classRT, work float64) []morsel {
	if w.parts == nil {
		return w.shardMorsels(rt.tab.Cap(), work)
	}
	ms := w.morselBuf[:0]
	for p := 0; p < w.parts.n; p++ {
		lo, hi := rt.prt.span(p, rt.tab.Cap())
		ms = append(ms, morsel{lo: lo, hi: hi, part: int32(p)})
	}
	w.morselBuf = ms
	return ms
}

// parallelOK reports whether this tick may use the worker pool at all.
// Tracing forces inline execution so the per-emission hook fires in row
// order.
func (w *World) parallelOK() bool { return w.opts.Workers > 1 && w.tracer == nil }

// workerSlot is the pooled private scratch of one pool worker (or of the
// inline caller): its kernel machine, a vectorized-phase scratch for
// partition morsels — their row spans may interleave, so they cannot share
// the class's range-disjoint scratch — and an execution context re-armed
// per morsel.
type workerSlot struct {
	machine *vexpr.Machine
	vec     vecScratch
	vecGen  uint64 // pass the vec scratch was last prepared for
	x       execCtx
}

// ensureWorkers lazily builds the pool workers' slots.
func (w *World) ensureWorkers() {
	if w.slots != nil {
		return
	}
	w.slots = make([]*workerSlot, w.opts.Workers)
	for i := range w.slots {
		w.slots[i] = &workerSlot{machine: new(vexpr.Machine)}
	}
}

// inlineSlot returns the slot inline morsels run with; its machine is the
// tick arena's, so it is valid only while the arena is held.
func (w *World) inlineSlot() *workerSlot {
	if w.inline == nil {
		w.inline = &workerSlot{}
	}
	w.inline.machine = w.arenaMachine()
	return w.inline
}

// runPool dispatches fn(slot, i) for every i in [0, n) across up to nw
// worker goroutines pulling from a shared worklist, and waits for the
// barrier; slot identifies the worker's private state. The one pool-dispatch
// loop behind morsel passes, index rebuilds and batched admission.
func (w *World) runPool(n, nw int, fn func(slot, i int)) {
	if nw > n {
		nw = n
	}
	if nw <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < nw; s++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(slot, i)
			}
		}(s)
	}
	wg.Wait()
}

// passKind names the row loop a morsel pass runs.
type passKind uint8

const (
	passEffect   passKind = iota // effect phase: vectorized phases, then scalar rows
	passHandlers                 // reactive handlers
	passRules                    // closure-path update rules
	passVecRules                 // vectorized update rules
)

// morselPass describes the pass in flight. It lives in the World, so the
// dispatcher hands it to workers without a per-pass closure.
type morselPass struct {
	kind    passKind
	rt      *classRT
	ms      []morsel
	vecSel  []bool // passEffect: phases that run as batch kernels
	private bool   // passEffect: partition morsels use per-slot vec scratch
	rules   []compile.UpdatePlan
}

// runPass runs the pass w.pass describes and folds its outputs back. A lone
// unpartitioned morsel runs inline and writes directly. Any other pass
// stages each morsel into its own sink — across the pool when there is more
// than one morsel and the pool is available, else inline in morsel order —
// and the fold merges the sinks in row order.
func (w *World) runPass() {
	p := &w.pass
	sinks := w.morselSinks(len(p.ms))
	if len(p.ms) == 1 && p.ms[0].part < 0 {
		sinks[0].direct = true
	}
	pooled := w.pooled(p.ms)
	if pooled {
		w.ensureWorkers()
		w.runPool(len(p.ms), w.opts.Workers, func(slot, i int) {
			w.runMorsel(i, w.slots[slot])
		})
	} else {
		ws := w.inlineSlot()
		for i := range p.ms {
			w.runMorsel(i, ws)
		}
	}
	w.foldMorsels(sinks, pooled)
}

// pooled reports whether a pass over ms fans out across the worker pool.
func (w *World) pooled(ms []morsel) bool { return len(ms) > 1 && w.parallelOK() }

// runMorsel runs morsel i of the pass in flight with the given slot.
func (w *World) runMorsel(i int, ws *workerSlot) {
	p := &w.pass
	mo, s := p.ms[i], w.sinks[i]
	switch p.kind {
	case passEffect:
		w.runEffectMorsel(p, mo, ws, s)
	case passHandlers:
		w.runHandlerMorsel(p.rt, mo, ws, s)
	case passRules:
		w.runRuleMorsel(p.rt, p.rules, mo, ws, s)
	case passVecRules:
		v := p.rt.vec
		for k, u := range v.updates {
			u.prog.Run(ws.machine, &v.sc.env, mo.lo, mo.hi, v.outVecs[k])
		}
	}
}

// runEffectPhase executes the query/effect phase (§2) class by class: the
// exec axis picks which phases run as batch kernels (the same decision for
// every morsel layout), the morsel split follows the parallelism axis or the
// partitions, and each morsel runs through runEffectMorsel.
func (w *World) runEffectPhase() {
	for _, rt := range w.order {
		if rt.plan.Decl.Run == nil || rt.tab.Len() == 0 {
			continue
		}
		var vecSel []bool
		work := 0.0
		// phaseCounts scans the extent; skip it when neither axis can use it.
		if rt.vec != nil && rt.vec.hasPhases || w.parts == nil && w.parallelOK() {
			vecSel, work = w.chooseEffectExec(rt, rt.phaseCounts())
		}
		ms := w.classMorsels(rt, work)
		private := w.parts != nil && w.pooled(ms)
		if vecSel != nil && !private {
			w.prepareVecPhases(rt, vecSel, rt.tab.Cap())
		}
		w.passGen++
		w.pass = morselPass{kind: passEffect, rt: rt, ms: ms, vecSel: vecSel, private: private}
		w.runPass()
	}
}

// runEffectMorsel runs one morsel of a class's effect phase: first the
// selected vectorized phases, with the ownership test folded into their
// selection mask, then the scalar pc-dispatch loop over the remaining rows.
func (w *World) runEffectMorsel(p *morselPass, mo morsel, ws *workerSlot, s *morselSink) {
	rt := p.rt
	vecRows := int64(0)
	if p.vecSel != nil {
		sc := &rt.vec.sc
		if p.private {
			sc = &ws.vec
			if ws.vecGen != w.passGen {
				w.prepareVecScratch(rt, sc, p.vecSel, rt.tab.Cap())
				ws.vecGen = w.passGen
			}
		}
		var tl *touchedLog
		if !s.direct {
			tl = &s.touched
			tl.ensure(len(rt.fx))
		}
		for ph, on := range p.vecSel {
			if on {
				vecRows += int64(w.vecPhaseRange(rt, ph, rt.vec.phases[ph], mo, sc, ws.machine, tl))
			}
		}
	}
	x, assign := w.armMorsel(rt, mo, ws, s)
	tab := rt.tab
	scalarRows := int64(0)
	for r := mo.lo; r < mo.hi; r++ {
		if !tab.Alive(r) || assign != nil && assign[r] != mo.part {
			continue
		}
		pc := int(tab.At(r, rt.pcCol).AsNumber())
		if p.vecSel != nil && p.vecSel[pc] {
			continue
		}
		steps := rt.plan.Phases[pc]
		if len(steps) == 0 {
			continue
		}
		s.curRow = int32(r)
		x.bindRow(rt, r)
		x.runSteps(steps)
		scalarRows++
	}
	s.vecRows += vecRows
	s.scalarRows += scalarRows
	s.load += vecRows + scalarRows + x.joinMatches
	x.flushJoinStats()
}

// armMorsel re-arms the slot's context for one morsel of rt, emitting into
// the morsel's sink (or directly), and returns the ownership column its
// rows must match — nil for an unpartitioned morsel.
func (w *World) armMorsel(rt *classRT, mo morsel, ws *workerSlot, s *morselSink) (*execCtx, []int32) {
	var sink emitSink = s
	if s.direct {
		sink = directSink{w: w}
	}
	x := ws.x.arm(w, sink, rt.plan.NumSlots, ws.machine, mo.part)
	if mo.part < 0 {
		return x, nil
	}
	return x, rt.prt.assign
}

// runHandlers evaluates reactive handlers on the new state, emitting
// effects for the next tick (§3.2), one class pass at a time. Handler accum
// sites are always shared (they probe post-update state), so partition
// contexts resolve parts[0].
func (w *World) runHandlers() {
	for _, rt := range w.order {
		if len(rt.plan.Handlers) == 0 || rt.tab.Len() == 0 {
			continue
		}
		work := w.execCosts.ScalarVisit * float64(rt.tab.Len()) * rt.handlerCost
		w.pass = morselPass{kind: passHandlers, rt: rt, ms: w.classMorsels(rt, work)}
		w.runPass()
	}
}

// runHandlerMorsel evaluates every handler for the morsel's rows.
func (w *World) runHandlerMorsel(rt *classRT, mo morsel, ws *workerSlot, s *morselSink) {
	x, assign := w.armMorsel(rt, mo, ws, s)
	tab := rt.tab
	rows := int64(0)
	for r := mo.lo; r < mo.hi; r++ {
		if !tab.Alive(r) || assign != nil && assign[r] != mo.part {
			continue
		}
		s.curRow = int32(r)
		x.bindRow(rt, r)
		for _, h := range rt.plan.Handlers {
			if h.Cond(&x.ctx).AsBool() {
				x.runSteps(h.Body)
			}
		}
		rows++
	}
	s.handlerRows += rows
	s.load += rows
	x.flushJoinStats()
}

// runScalarUpdates evaluates a class's closure-path update rules over
// range morsels, staging each result for the atomic apply. Every row stages
// at most once per attribute, so the staging store is the same however the
// rows split.
func (w *World) runScalarUpdates(rt *classRT, rules []compile.UpdatePlan) {
	work := w.execCosts.ScalarVisit * float64(rt.tab.Len()*len(rules))
	w.pass = morselPass{kind: passRules, rt: rt, ms: w.shardMorsels(rt.tab.Cap(), work), rules: rules}
	w.runPass()
	if !w.opts.DisableStats {
		w.execStats.ScalarRows += int64(rt.tab.Len() * len(rules))
	}
}

// runRuleMorsel evaluates every rule for the morsel's live rows. The row
// and effect readers live in the pooled context, so binding a row boxes
// nothing.
func (w *World) runRuleMorsel(rt *classRT, rules []compile.UpdatePlan, mo morsel, ws *workerSlot, s *morselSink) {
	x := ws.x.arm(w, nil, 0, ws.machine, 0)
	x.ctx.Effects = &x.fxr
	x.ctx.EffectZero = rt.effectZero
	tab := rt.tab
	for r := mo.lo; r < mo.hi; r++ {
		if !tab.Alive(r) {
			continue
		}
		x.bindRow(rt, r)
		x.fxr = fxReader{rt: rt, row: r}
		for _, u := range rules {
			v := u.Fn(&x.ctx)
			if s.direct {
				rt.stageRow(u.AttrIdx, x.row, v)
			} else {
				s.staged = append(s.staged, stagedWrite{attrIdx: u.AttrIdx, row: int32(x.row), val: v})
			}
		}
	}
}

// stagedEmit is one effect emission staged by a morsel, its target already
// resolved to (class, row) — tables are frozen while a pass runs.
type stagedEmit struct {
	rt   *classRT
	row  int32
	attr int32
	key  float64
	val  value.Value
}

// stagedWrite is one scalar update-rule result staged by a morsel.
type stagedWrite struct {
	attrIdx int
	row     int32
	val     value.Value
}

// morselSink holds one morsel's outputs for the fold: effect emissions and
// transactions tagged with their source row (appended in ascending row
// order, so the fold is a k-way merge of sorted streams), the vectorized
// phases' empty→touched transitions, update-rule results and row counters.
// Exactly one worker owns a sink during a pass, so nothing here needs
// atomics.
type morselSink struct {
	// direct is set for a pass's lone unpartitioned morsel: it writes
	// straight into the world's buffers and leaves the streams empty.
	direct bool

	curRow  int32
	ems     []stagedEmit
	rows    []int32
	txns    []*Txn
	txnRows []int32
	staged  []stagedWrite
	touched touchedLog

	vecRows, scalarRows, handlerRows int64
	load                             int64 // row visits for the partition rebalancer
}

func (s *morselSink) emit(w *World, e Emission) {
	rt := w.classes[e.Class]
	row := rt.tab.Row(e.Target)
	if row < 0 {
		return // dangling target: contribution is dropped
	}
	s.ems = append(s.ems, stagedEmit{rt: rt, row: int32(row), attr: int32(e.AttrIdx), key: e.Key, val: e.Val})
	s.rows = append(s.rows, s.curRow)
}

func (s *morselSink) addTxn(t *Txn) {
	s.txns = append(s.txns, t)
	s.txnRows = append(s.txnRows, s.curRow)
}

func (s *morselSink) reset() {
	s.direct = false
	s.ems = s.ems[:0]
	s.rows = s.rows[:0]
	s.txns = s.txns[:0]
	s.txnRows = s.txnRows[:0]
	s.staged = s.staged[:0]
	s.touched.reset()
	s.vecRows, s.scalarRows, s.handlerRows, s.load = 0, 0, 0, 0
}

// morselSinks returns n reset sinks, one per morsel of the next pass.
func (w *World) morselSinks(n int) []*morselSink {
	for len(w.sinks) < n {
		w.sinks = append(w.sinks, &morselSink{})
	}
	sinks := w.sinks[:n]
	for _, s := range sinks {
		s.reset()
	}
	return sinks
}

// foldMorsels folds a pass's sinks back into the world: touched logs,
// update-rule results, counters and partition loads in morsel order, then
// emissions and transactions in source-row order. The touched lists end up
// deterministic but not globally row-sorted when partition spans interleave;
// every consumer treats them as sets. An emission whose target row another
// partition owns counts as a cross-partition effect message.
func (w *World) foldMorsels(sinks []*morselSink, pooled bool) {
	p := &w.pass
	rt := p.rt
	track := !w.opts.DisableStats
	for i, s := range sinks {
		for ai, rows := range s.touched.rows {
			if len(rows) > 0 {
				rt.fx[ai].touched = append(rt.fx[ai].touched, rows...)
			}
		}
		for _, sw := range s.staged {
			rt.stageRow(sw.attrIdx, int(sw.row), sw.val)
		}
		if track {
			w.execStats.VectorRows += s.vecRows
			w.execStats.ScalarRows += s.scalarRows
			w.execStats.HandlerRows += s.handlerRows
		}
		if part := p.ms[i].part; part >= 0 {
			rt.prt.loads[part] += s.load
		}
	}
	if pooled && track {
		w.execStats.ParallelShards += int64(len(sinks))
	}
	w.mergeByRow(len(sinks),
		func(si int) []int32 { return sinks[si].rows },
		func(si, i int) {
			e := &sinks[si].ems[i]
			e.rt.fx[e.attr].add(int(e.row), e.val, e.key)
			if part := p.ms[si].part; track && part >= 0 && e.rt.prt.assign[e.row] != part {
				w.execStats.PartMsgsEffect++
				w.execStats.PartBytes += cluster.BytesPerEffect
			}
		})
	// Transactions merge the same way, so admission sees them in the serial
	// collection order.
	w.mergeByRow(len(sinks),
		func(si int) []int32 { return sinks[si].txnRows },
		func(si, i int) { w.txns = append(w.txns, sinks[si].txns[i]) })
}

// mergeByRow replays k row-sorted streams (rows(si)) in ascending source-row
// order. Rows are unique across streams — each row belongs to exactly one
// morsel — so apply sees exactly the serial row loop's order. Each step
// drains the lowest stream up to the next stream's head, so contiguous
// shards merge by plain concatenation.
func (w *World) mergeByRow(k int, rows func(si int) []int32, apply func(si, i int)) {
	for len(w.mergeIdx) < k {
		w.mergeIdx = append(w.mergeIdx, 0)
	}
	idx := w.mergeIdx[:k]
	for i := range idx {
		idx[i] = 0
	}
	for {
		best, bestRow := -1, int32(0)
		next, nextRow := -1, int32(0)
		for si := range idx {
			rs := rows(si)
			if idx[si] >= len(rs) {
				continue
			}
			switch r := rs[idx[si]]; {
			case best < 0 || r < bestRow:
				next, nextRow = best, bestRow
				best, bestRow = si, r
			case next < 0 || r < nextRow:
				next, nextRow = si, r
			}
		}
		if best < 0 {
			return
		}
		rs := rows(best)
		for idx[best] < len(rs) && (next < 0 || rs[idx[best]] < nextRow) {
			apply(best, idx[best])
			idx[best]++
		}
	}
}
