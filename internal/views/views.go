// Package views maintains declarative per-client subscriptions over world
// state as incremental materialized views — the paper's thesis (what a
// client sees is a query; serving a crowd means maintaining those queries,
// not re-running them) applied to the engine's own substrate. A
// subscription is a compiled SGL predicate over one class extent, optionally
// folded to an aggregate (count, sum, top-k), and each tick the registry
// re-evaluates it only for the rows the engine changefeed marked, emitting a
// columnar delta (adds / updates / removes, or the new aggregate) instead of
// rescanning the extent per client.
//
// The machinery reuses the engine's execution stack end to end:
//
//   - predicates sem-check through the program's schema and classify
//     through analysis.AnalyzeViewPred — unstable predicates (cross-object
//     reads, extent iteration) pin their subscription to the rescan path;
//   - stable predicates compile to vexpr mask kernels. Literal constants
//     are canonicalized into frame slots first, so the ten-thousand
//     subscriptions that differ only in thresholds share one compiled
//     program (and one machine register slab) with per-subscription
//     constants fed through Env.Slots lanes;
//   - plan.Costs.ChooseView arbitrates delta-maintain vs rescan per
//     subscription per tick from the same cost vocabulary as ChooseExec;
//   - spatial interest subscriptions build rectangular predicates whose
//     reach plan.InteractionRadius bounds — the same box the partitioned
//     executor ghosts, which is why the changefeed (and thus every view)
//     is identical under Workers > 1 and Partitions > 1. On the delta path
//     a crowd of such boxes is joined with the changed rows through one
//     candidate point index instead of one kernel run per box (box.go).
//
// Everything the registry retains — membership sets, delta buffers,
// candidate lanes, constant lanes — is reused across ticks; steady-state
// maintenance of a warmed subscription set performs zero heap allocations.
package views

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/compile"
	"repro/internal/engine"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/sgl/ast"
	"repro/internal/sgl/parser"
	"repro/internal/table"
	"repro/internal/value"
	"repro/internal/vexpr"
)

// Kind selects what a subscription delivers.
type Kind uint8

const (
	// Select delivers the matching rows themselves: adds/updates/removes
	// with columnar payloads.
	Select Kind = iota
	// Count delivers the number of matching rows.
	Count
	// Sum delivers the sum of a numeric attribute over matching rows,
	// refolded in ascending-id order so the result is bit-identical to a
	// fresh rescan.
	Sum
	// TopK delivers the K matching rows with the largest key attribute
	// (ties broken by ascending id), maintained incrementally with
	// recompute-on-retract.
	TopK
)

// Def declares one subscription.
type Def struct {
	// Class names the subscribed extent.
	Class string
	// Pred is an SGL boolean expression over the class's own row; empty
	// subscribes to every row.
	Pred string
	// Payload lists state attributes delivered with Select adds/updates.
	// Columns are delivered as float64 payloads (string attributes as
	// dictionary codes); set-valued attributes have no columnar form.
	Payload []string
	// Kind selects row delivery or an aggregate fold.
	Kind Kind
	// Attr is the folded attribute (Sum) or ranking key (TopK).
	Attr string
	// K bounds the TopK result.
	K int
	// Mode pins the maintenance strategy; ViewAuto lets the cost model
	// decide per tick. Soundness overrides it: unstable predicates and
	// resyncs always rescan.
	Mode plan.ViewMode
}

// SubID identifies a subscription within its registry.
type SubID int64

// TopEntry is one ranked row of a TopK result.
type TopEntry struct {
	ID  value.ID
	Key float64
}

// Delta is one subscription's per-tick change set. All slices alias
// registry-retained buffers: they are valid only during the Apply callback
// and must be copied to retain. Lists are sorted by ascending id.
type Delta struct {
	Sub   SubID
	Class string
	Tick  int64

	// Resync marks a full refresh: the client must discard its view state
	// and replace it with AddIDs/AddCols (emitted after subscription,
	// hibernate→restore, or an unaccounted structure change).
	Resync bool

	AddIDs  []value.ID
	AddCols [][]float64 // per payload attr, aligned with AddIDs
	UpdIDs  []value.ID
	UpdCols [][]float64
	RemIDs  []value.ID

	// AggChanged reports Agg (Count/Sum) or Top (TopK) carries a new value.
	AggChanged bool
	Agg        float64
	Top        []TopEntry

	changed bool
}

// Bytes is the wire size of the delta at 8 bytes per id or payload cell —
// the per-tick bandwidth a client of this subscription costs.
func (d *Delta) Bytes() int64 {
	n := 8 * (len(d.AddIDs) + len(d.UpdIDs) + len(d.RemIDs))
	for _, c := range d.AddCols {
		n += 8 * len(c)
	}
	for _, c := range d.UpdCols {
		n += 8 * len(c)
	}
	if d.AggChanged {
		n += 8
	}
	n += 16 * len(d.Top)
	return int64(n)
}

func (d *Delta) reset(id SubID, class string, tick int64) {
	d.Sub, d.Class, d.Tick = id, class, tick
	d.Resync = false
	d.AddIDs = d.AddIDs[:0]
	d.UpdIDs = d.UpdIDs[:0]
	d.RemIDs = d.RemIDs[:0]
	for i := range d.AddCols {
		d.AddCols[i] = d.AddCols[i][:0]
	}
	for i := range d.UpdCols {
		d.UpdCols[i] = d.UpdCols[i][:0]
	}
	d.AggChanged = false
	d.Agg = 0
	d.Top = d.Top[:0]
	d.changed = false
}

// Sub is one live subscription.
type Sub struct {
	id  SubID
	def Def
	cs  *classState

	pred     ast.Expr  // canonicalized predicate (constants → frame slots)
	consts   []float64 // per-subscription constants, in slot order
	frame    []value.Value
	key      string    // canonical shape key (kernel cache key)
	pp       *predProg // shared kernel; nil → scalar closure path
	scalarFn expr.Fn   // scalar fallback / unstable-predicate evaluator
	reads    []int     // predicate state reads
	box      *box      // recognised interest box; nil → kernel delta arm
	payload  []int     // payload attr indices (Select)
	aggAttr  int       // Sum/TopK attr index; -1 otherwise
	stable   bool
	reasons  []string

	// cols is reads ∪ payload ∪ aggAttr: the column versions whose
	// stillness (plus an unchanged structure version) makes skipping the
	// subscription entirely sound.
	cols       []int
	lastStruct uint64
	lastCols   []uint64
	versValid  bool
	fresh      bool // force rescan + Resync delta on next Apply

	members    []value.ID // current matching ids, ascending
	memScratch []value.ID

	agg float64
	top []TopEntry

	d Delta
}

// ID returns the subscription's registry id.
func (s *Sub) ID() SubID { return s.id }

// Def returns the subscription as declared.
func (s *Sub) Def() Def { return s.def }

// Stable reports whether the predicate is delta-maintainable; when false,
// Reasons explains why every tick rescans.
func (s *Sub) Stable() bool { return s.stable }

// Reasons returns the stability analysis's why-reasons (nil when Stable).
func (s *Sub) Reasons() []string { return s.reasons }

// Members returns a copy of the current matching ids, ascending.
func (s *Sub) Members() []value.ID {
	out := make([]value.ID, len(s.members))
	copy(out, s.members)
	return out
}

// Agg returns the current aggregate value (Count/Sum).
func (s *Sub) Agg() float64 { return s.agg }

// Top returns a copy of the current TopK ranking.
func (s *Sub) Top() []TopEntry {
	out := make([]TopEntry, len(s.top))
	copy(out, s.top)
	return out
}

// predProg is one compiled predicate shape, shared by every subscription
// whose predicate canonicalizes to the same key.
type predProg struct {
	prog    *vexpr.Prog
	nConsts int
}

// classState is the registry's per-class maintenance state: the drained
// changefeed, and candidate lanes shared by every subscription on the class.
type classState struct {
	name string
	cls  *schema.Class
	tab  *table.Table
	subs []*Sub // ascending SubID

	// Drained feed, copied out of engine scratch each Apply.
	rows    []int32
	killed  []value.ID
	resync  bool
	drained bool

	// Candidate lanes over rows, built lazily per Apply: gathered payload
	// lanes for gatherCols (attr-indexed), the candidate id lane, and the
	// ids as values.
	gatherCols []int
	lanes      [][]float64
	idLane     []float64
	candIDs    []value.ID
	lanesBuilt bool
	idsBuilt   bool

	fullIDLane []float64 // whole-extent id lane for rescanning kernels

	// The indexed delta arm's state (box.go): one candidate point index
	// per attribute pair some box subscription bounds, and the candidates
	// sorted by id for removal lookups.
	boxIdx        []*boxIndex
	candByID      []idRow // (id, candidate position)
	candByIDBuilt bool
}

// Registry maintains every subscription of one engine world. Not
// goroutine-safe: Apply must be called between ticks from the goroutine
// driving the world, the same discipline as engine.World itself.
type Registry struct {
	eng   *engine.World
	prog  *compile.Program
	costs plan.Costs

	nextID    SubID
	subs      []*Sub // ascending SubID
	byID      map[SubID]*Sub
	classes   map[string]*classState
	classList []*classState

	progCache map[string]*predProg
	mach      vexpr.Machine
	env       vexpr.Env // retained: a per-call Env escapes to the heap

	// Shared per-Apply scratch.
	slotLanes [][]float64 // constant lanes, indexed by canonical slot
	slotSub   *Sub        // whose constants currently fill slotLanes
	slotLen   int
	mask      []float64
	addPairs  []idRow
	updPairs  []idRow
	fullPairs []idRow
	topCand   []TopEntry
	hits      []int32

	drainFn func(engine.ClassDelta)

	// Per-Apply counters.
	deltaRows   int64
	rescans     int64
	deltaBytes  int64
	indexProbes int64
	indexHits   int64
}

type idRow struct {
	id  value.ID
	row int32
}

// New builds a registry over an engine world and enables its changefeed.
func New(eng *engine.World, costs plan.Costs) *Registry {
	r := &Registry{
		eng:       eng,
		prog:      eng.Program(),
		costs:     costs,
		byID:      map[SubID]*Sub{},
		classes:   map[string]*classState{},
		progCache: map[string]*predProg{},
	}
	r.drainFn = r.copyFeed
	eng.EnableChangeFeed()
	return r
}

// Subscribe registers a subscription and returns its handle. The first
// Apply after Subscribe evaluates it from a full rescan and emits a Resync
// delta carrying the complete initial result.
func (r *Registry) Subscribe(def Def) (*Sub, error) {
	cp := r.prog.Classes[def.Class]
	if cp == nil {
		return nil, fmt.Errorf("views: unknown class %q", def.Class)
	}
	predSrc := def.Pred
	if strings.TrimSpace(predSrc) == "" {
		predSrc = "true"
	}
	e, err := parser.ParseExpr(predSrc)
	if err != nil {
		return nil, fmt.Errorf("views: predicate: %w", err)
	}
	ty, err := r.prog.Info.AnalyzeExpr(def.Class, e)
	if err != nil {
		return nil, fmt.Errorf("views: predicate: %w", err)
	}
	if ty.Kind != value.KindBool {
		return nil, fmt.Errorf("views: predicate must be boolean, got %v", ty.Kind)
	}
	s := &Sub{def: def, aggAttr: -1}
	s.compilePred(def.Class, e)
	if s.stable {
		s.box = recogniseBox(cp.Class, s.pred, s.consts)
	}

	switch def.Kind {
	case Select:
		for _, name := range def.Payload {
			i := cp.Class.StateIndex(name)
			if i < 0 {
				return nil, fmt.Errorf("views: unknown payload attribute %s.%s", def.Class, name)
			}
			if cp.Class.State[i].Kind == value.KindSet {
				return nil, fmt.Errorf("views: payload attribute %s.%s is set-valued and has no columnar form", def.Class, name)
			}
			s.payload = append(s.payload, i)
		}
	case Count:
		if len(def.Payload) > 0 {
			return nil, fmt.Errorf("views: aggregate subscriptions carry no payload")
		}
	case Sum, TopK:
		if len(def.Payload) > 0 {
			return nil, fmt.Errorf("views: aggregate subscriptions carry no payload")
		}
		i := cp.Class.StateIndex(def.Attr)
		if i < 0 {
			return nil, fmt.Errorf("views: unknown aggregate attribute %s.%s", def.Class, def.Attr)
		}
		if cp.Class.State[i].Kind != value.KindNumber {
			return nil, fmt.Errorf("views: aggregate attribute %s.%s is not numeric", def.Class, def.Attr)
		}
		s.aggAttr = i
		if def.Kind == TopK && def.K <= 0 {
			return nil, fmt.Errorf("views: TopK needs K > 0")
		}
	default:
		return nil, fmt.Errorf("views: unknown subscription kind %d", def.Kind)
	}

	// Version-watched columns: predicate reads plus everything delivered.
	seen := map[int]bool{}
	for _, c := range s.reads {
		seen[c] = true
	}
	for _, c := range s.payload {
		seen[c] = true
	}
	if s.aggAttr >= 0 {
		seen[s.aggAttr] = true
	}
	for c := range len(cp.Class.State) {
		if seen[c] {
			s.cols = append(s.cols, c)
		}
	}
	s.lastCols = make([]uint64, len(s.cols))
	s.d.AddCols = make([][]float64, len(s.payload))
	s.d.UpdCols = make([][]float64, len(s.payload))

	cs := r.classes[def.Class]
	if cs == nil {
		cs = &classState{name: def.Class, cls: cp.Class, tab: r.eng.ClassTable(def.Class)}
		r.classes[def.Class] = cs
		r.classList = append(r.classList, cs)
	}
	s.cs = cs
	s.fresh = true
	s.recompileKernel(r)

	r.nextID++
	s.id = r.nextID
	r.subs = append(r.subs, s)
	r.byID[s.id] = s
	cs.subs = append(cs.subs, s)
	cs.recomputeGatherCols()
	if s.box != nil {
		cs.attachBox(s.box)
	}
	return s, nil
}

// Unsubscribe removes a subscription.
func (r *Registry) Unsubscribe(id SubID) bool {
	s, ok := r.byID[id]
	if !ok {
		return false
	}
	delete(r.byID, id)
	r.subs = removeSub(r.subs, s)
	s.cs.subs = removeSub(s.cs.subs, s)
	s.cs.recomputeGatherCols()
	if s.box != nil {
		s.box.idx.cell = 0
	}
	return true
}

// Subs returns the number of live subscriptions.
func (r *Registry) Subs() int { return len(r.subs) }

// Get returns a subscription by id.
func (r *Registry) Get(id SubID) (*Sub, bool) {
	s, ok := r.byID[id]
	return s, ok
}

func removeSub(subs []*Sub, s *Sub) []*Sub {
	for i, x := range subs {
		if x == s {
			return append(subs[:i], subs[i+1:]...)
		}
	}
	return subs
}

func (cs *classState) recomputeGatherCols() {
	cs.gatherCols = cs.gatherCols[:0]
	seen := map[int]bool{}
	for _, s := range cs.subs {
		for _, c := range s.cols {
			seen[c] = true
		}
	}
	for c := range len(cs.cls.State) {
		if seen[c] {
			cs.gatherCols = append(cs.gatherCols, c)
		}
	}
}

// Detach releases the engine before hibernation; Apply becomes a no-op
// until Attach. Subscription state (membership, aggregates) is retained so
// clients stay subscribed across the gap.
func (r *Registry) Detach() { r.eng = nil }

// Attach rebinds the registry to a (restored) engine world: tables and
// dictionaries are fresh objects, so every predicate kernel recompiles and
// every subscription resyncs on the next Apply.
func (r *Registry) Attach(eng *engine.World) {
	r.eng = eng
	r.prog = eng.Program()
	eng.EnableChangeFeed()
	r.mach = vexpr.Machine{}
	clear(r.progCache)
	for _, cs := range r.classList {
		cs.tab = eng.ClassTable(cs.name)
	}
	for _, s := range r.subs {
		s.recompileKernel(r)
		s.fresh = true
	}
}

// Attached reports whether the registry currently drives an engine.
func (r *Registry) Attached() bool { return r.eng != nil }

// InterestPred builds the rectangular predicate for a spatial
// interest-radius subscription: attrs within radius of center on every
// axis. The box's reach is validated through plan.InteractionRadius — the
// same bound the partitioned executor derives ghost margins from — so an
// unbounded region is rejected here rather than silently costing a
// whole-extent scan.
func InterestPred(attrs []string, center []float64, radius float64) (string, error) {
	if len(attrs) == 0 || len(attrs) != len(center) {
		return "", fmt.Errorf("views: interest needs one center coordinate per attribute")
	}
	lo := make([]float64, len(attrs))
	hi := make([]float64, len(attrs))
	for i, c := range center {
		lo[i], hi[i] = c-radius, c+radius
	}
	reachLo, reachHi := plan.InteractionRadius(center, lo, hi)
	if !plan.BoundedReach(reachLo, reachHi) {
		return "", fmt.Errorf("views: interest region is unbounded")
	}
	var b strings.Builder
	for i, a := range attrs {
		if i > 0 {
			b.WriteString(" && ")
		}
		fmt.Fprintf(&b, "%s >= %s && %s <= %s",
			a, strconv.FormatFloat(lo[i], 'g', -1, 64),
			a, strconv.FormatFloat(hi[i], 'g', -1, 64))
	}
	return b.String(), nil
}
