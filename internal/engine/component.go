package engine

import (
	"fmt"

	"repro/internal/value"
)

// UpdateComponent updates the state attributes it owns during the update
// step (§2.2). State attributes are strictly partitioned: the engine
// rejects writes to attributes a component does not own. Components read
// tick-start state and ⊕-combined effects through the UpdateCtx and stage
// new values; all staged writes apply atomically after every component ran.
type UpdateComponent interface {
	// Name must match the `by <name>` owner in class declarations.
	Name() string
	// Update stages new values for owned attributes.
	Update(ctx *UpdateCtx) error
}

// TxnPolicy decides which collected transactions commit (§3.1). The engine
// gives the policy the tick's transactions in deterministic order; the
// policy marks losers via Txn.Aborted and is responsible for leaving the
// effect accumulators consistent with the commit set.
type TxnPolicy interface {
	Admit(ctx *UpdateCtx, txns []*Txn) error
}

// UpdateCtx is the update-step view handed to components: read old state
// and combined effects, stage new state for owned attributes.
//
// Components address objects by physical row: resolve an AttrHandle per
// (class, attribute) once per Update, walk the class's Live mask, and read
// and stage through StateAt, EffectAt, IDAt and StageAt. The by-name State,
// Effect and Stage are thin wrappers that resolve a handle and the id's row
// on every call.
type UpdateCtx struct {
	w     *World
	owner string // component being run; "" for the built-in rule evaluator
}

// AttrHandle is a (class, attribute) pair resolved by UpdateCtx.Attr for
// row-addressed access. Whether the resolving component may stage the
// attribute is decided once, at resolution. A handle is valid for the world
// whose UpdateCtx resolved it.
type AttrHandle struct {
	rt     *classRT
	state  int        // state attribute index, or -1
	effect int        // effect attribute index, or -1
	kind   value.Kind // state attribute kind
	owns   bool       // the resolving owner may stage the state attribute
	by     string     // owner of the UpdateCtx that resolved the handle
}

// World returns the world (for read access such as Count/IDs).
func (u *UpdateCtx) World() *World { return u.w }

// Tick returns the tick being computed.
func (u *UpdateCtx) Tick() int64 { return u.w.tick }

// Attr resolves a state or effect attribute of a class to a handle.
func (u *UpdateCtx) Attr(class, attr string) (AttrHandle, error) {
	rt, ok := u.w.classes[class]
	if !ok {
		return AttrHandle{}, fmt.Errorf("engine: unknown class %q", class)
	}
	h := AttrHandle{rt: rt, state: rt.cls.StateIndex(attr), effect: rt.cls.EffectIndex(attr), by: u.owner}
	if h.state < 0 && h.effect < 0 {
		return AttrHandle{}, fmt.Errorf("engine: class %s has no attribute %q", class, attr)
	}
	if h.state >= 0 {
		h.kind = rt.cls.State[h.state].Kind
		h.owns = rt.plan.OwnedBy[attr] == u.owner
	}
	return h, nil
}

// Live is the liveness mask of the handle's class, indexed by physical row.
// Ascending row order is the class's storage order (the order of IDs).
// Read-only; it aliases table storage.
func (u *UpdateCtx) Live(h AttrHandle) []bool { return h.rt.tab.AliveMask() }

// IDAt returns the object id at a live row.
func (u *UpdateCtx) IDAt(h AttrHandle, row int) value.ID { return h.rt.tab.ID(row) }

// StateAt reads the tick-start value of the handle's state attribute at a
// live row.
func (u *UpdateCtx) StateAt(h AttrHandle, row int) value.Value { return h.rt.tab.At(row, h.state) }

// EffectAt reads the ⊕-combined contribution to the handle's effect
// attribute at a live row; ok is false when nothing was emitted this tick.
func (u *UpdateCtx) EffectAt(h AttrHandle, row int) (value.Value, bool) {
	if h.effect < 0 {
		return value.Value{}, false
	}
	return h.rt.fx[h.effect].acc[row].Result()
}

// StageAt records a new value of the handle's state attribute for a row.
// Only the owning component may stage an attribute; violations return an
// error, enforcing the paper's strict partition. Staging a row that is not
// live is a no-op.
func (u *UpdateCtx) StageAt(h AttrHandle, row int, v value.Value) error {
	if !h.owns || v.Kind() != h.kind {
		return h.stageError(v)
	}
	if h.rt.tab.Alive(row) {
		h.rt.stageRow(h.state, row, v)
	}
	return nil
}

func (h AttrHandle) stageError(v value.Value) error {
	class := h.rt.name
	if h.state < 0 {
		return fmt.Errorf("engine: class %s has no state attribute %q", class, h.rt.cls.Effects[h.effect].Name)
	}
	a := h.rt.cls.State[h.state]
	if !h.owns {
		owner := h.rt.plan.OwnedBy[a.Name]
		if h.by == "" {
			return fmt.Errorf("engine: attribute %s.%s is owned by %q; the rule evaluator may not stage it", class, a.Name, owner)
		}
		return fmt.Errorf("engine: component %q may not stage %s.%s (owner %q)", h.by, class, a.Name, owner)
	}
	return fmt.Errorf("engine: staging %s into %s.%s (%s)", v.Kind(), class, a.Name, a.Kind)
}

// State reads a tick-start state attribute.
func (u *UpdateCtx) State(class string, id value.ID, attr string) (value.Value, bool) {
	h, err := u.Attr(class, attr)
	if err != nil || h.state < 0 {
		return value.Value{}, false
	}
	row := h.rt.tab.Row(id)
	if row < 0 {
		return value.Value{}, false
	}
	return u.StateAt(h, row), true
}

// Effect reads the ⊕-combined effect contribution for an object; ok is
// false when nothing was emitted this tick.
func (u *UpdateCtx) Effect(class string, id value.ID, attr string) (value.Value, bool) {
	h, err := u.Attr(class, attr)
	if err != nil {
		return value.Value{}, false
	}
	row := h.rt.tab.Row(id)
	if row < 0 {
		return value.Value{}, false
	}
	return u.EffectAt(h, row)
}

// IDs lists live objects of a class in storage order.
func (u *UpdateCtx) IDs(class string) []value.ID { return u.w.IDs(class) }

// Stage records a new value for a state attribute of an object, with
// StageAt's checks. Staging an id that is not live is a no-op.
func (u *UpdateCtx) Stage(class string, id value.ID, attr string, v value.Value) error {
	h, err := u.Attr(class, attr)
	if err != nil {
		return err
	}
	return u.StageAt(h, h.rt.tab.Row(id), v)
}

// rowStage holds one state attribute's staged new values for the update
// step, addressed by physical row: a value slot and a staged mark per row,
// and the staged rows in first-staged order. Scalar rules and components
// stage here; vectorized rules stage dense columns (vecClassPlan.outVecs).
type rowStage struct {
	vals   []value.Value
	marked []bool
	rows   []int32
}

// stageRow stages v for a live row of state attribute attrIdx; a row staged
// twice keeps the later value. It is unchecked: the rule evaluator stages
// only attributes with rules (never owned ones), and StageAt checks
// ownership and kind first.
func (rt *classRT) stageRow(attrIdx, row int, v value.Value) {
	s := &rt.stage[attrIdx]
	if row >= len(s.vals) {
		n := max(rt.tab.Cap(), row+1)
		s.vals = append(s.vals, make([]value.Value, n-len(s.vals))...)
		s.marked = append(s.marked, make([]bool, n-len(s.marked))...)
	}
	if !s.marked[row] {
		s.marked[row] = true
		s.rows = append(s.rows, int32(row))
	}
	s.vals[row] = v
}

// applyStaged writes every staged row into the table in first-staged order
// and empties the store. Changefeed marks diff on raw bits, so rows
// rewritten to the same payload stay out of the feed.
func (rt *classRT) applyStaged() {
	for ai := range rt.stage {
		s := &rt.stage[ai]
		for _, r := range s.rows {
			row := int(r)
			v := s.vals[row]
			if rt.vlog != nil && changedValue(rt.tab.At(row, ai), v) {
				rt.vlog.mark(row)
			}
			rt.tab.SetAt(row, ai, v)
		}
		s.reset()
	}
}

// dropStaged discards staging a failed tick left behind — staged rows and
// dense vectorized results alike — so it never applies later.
func (rt *classRT) dropStaged() {
	for ai := range rt.stage {
		rt.stage[ai].reset()
	}
	if rt.vec != nil {
		rt.vec.staged = false
	}
}

// reset unmarks every staged row and releases its value.
func (s *rowStage) reset() {
	for _, r := range s.rows {
		s.marked[r] = false
		s.vals[r] = value.Value{}
	}
	s.rows = s.rows[:0]
}
