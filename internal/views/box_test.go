package views

import (
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/plan"
)

// TestRecogniseBox pins the shape rule that routes a subscription to the
// indexed delta arm: closed, finite, two-attribute, two-sided boxes in any
// operand order go to the index; everything else stays on kernels.
func TestRecogniseBox(t *testing.T) {
	w, err := core.MustLoad("fig2", core.SrcFig2).NewWorld(engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := New(w, plan.DefaultCosts())
	for _, c := range []struct {
		pred string
		want *[4]float64 // x lo, x hi, y lo, y hi
	}{
		{"x >= 1 && x <= 2 && y >= 3 && y <= 4", &[4]float64{1, 2, 3, 4}},
		{"4 >= y && 3 <= y && 2 >= x && 1 <= x", &[4]float64{1, 2, 3, 4}},
		{"x >= -2 && x <= -1 && y >= 0 && y <= 0", &[4]float64{-2, -1, 0, 0}},
		{"x >= 1 && x >= 1.5 && x <= 9 && x <= 2 && y >= 3 && y <= 4", &[4]float64{1.5, 2, 3, 4}},
		{"x >= 1 && x <= 2 && health >= 3 && health <= 4", &[4]float64{1, 2, 3, 4}},
		{"x > 1 && x <= 2 && y >= 3 && y <= 4", nil},
		{"x >= 1 && x <= 2 && y >= 3", nil},
		{"x >= 1 && x <= 2", nil},
		{"x >= 1 && x <= 2 && y >= 3 && y <= 4 && health >= 0 && health <= 9", nil},
		{"x >= 1 && x <= 1e308 * 10 && y >= 3 && y <= 4", nil},
		{"x >= y && x <= 2 && y >= 3 && y <= 4", nil},
		{"x >= 1 && x <= 2 && y >= 3 && y <= 4 || health < 5", nil},
		{"x >= 1 && x <= 2 && y >= 3 && y <= 4 && health < 5", nil},
		{"x == 1 && x <= 2 && y >= 3 && y <= 4", nil},
	} {
		s, err := r.Subscribe(Def{Class: "Unit", Pred: c.pred})
		if err != nil {
			t.Fatal(err)
		}
		switch b := s.box; {
		case c.want == nil && b != nil:
			t.Errorf("%q: recognised as box %+v, want kernel path", c.pred, *b)
		case c.want != nil && b == nil:
			t.Errorf("%q: not recognised as a box", c.pred)
		case c.want != nil && [4]float64{b.lo[0], b.hi[0], b.lo[1], b.hi[1]} != *c.want:
			t.Errorf("%q: box %v %v, want %v", c.pred, b.lo, b.hi, *c.want)
		}
	}

	// A constant that is not finite (the lexer rejects 1e999, so feed it
	// through the constant vector) keeps the subscription on kernels.
	s, err := r.Subscribe(Def{Class: "Unit", Pred: "x >= 1 && x <= 2 && y >= 3 && y <= 4"})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		consts := slices.Clone(s.consts)
		consts[1] = bad
		if b := recogniseBox(s.cs.cls, s.pred, consts); b != nil {
			t.Errorf("bound %v: recognised as box %+v", bad, *b)
		}
	}
}
