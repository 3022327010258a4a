package main

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/value"
	"repro/internal/workload"
)

// Market workload sizes: E20's paired contended market at 20k traders.
const (
	marketPairs = 10000
	marketPrice = 25
	// marketHorizon bounds the ticks any run can reach: deep sellers stock
	// and buyers carry enough for that many purchases, so deep buyers
	// commit on every tick of every run.
	marketHorizon = 1 << 20
	marketWarm    = 3
)

type market struct {
	w      *engine.World
	c      *engine.Compiled
	opts   engine.Options
	pol    *timedPolicy
	tr     *tracer
	deep   []value.ID // buyers whose seller never sells out
	buyers int
	gold0  float64
	stock0 float64
}

// buildMarket spawns alternating deep and shallow segments of one buyer
// per seller. Segment sizes vary around E20's so that the id-hash
// partition layout gives both partition-local and cross-partition
// transactions. Shallow sellers hold a few units and sell out during
// warm-up; their buyers keep submitting and aborting on
// seller.stock >= 0 for the whole window, so the commit/abort mix is the
// same throughout.
func buildMarket(seed int64, tr *tracer) (*market, error) {
	c, err := loadScenario("market", core.SrcMarket, tr)
	if err != nil {
		return nil, err
	}
	m := &market{c: c, tr: tr, opts: engine.Options{Workers: workers(), Partitions: 2}}
	if m.w, err = engine.NewFromCompiled(c, m.opts); err != nil {
		return nil, err
	}
	m.pol = &timedPolicy{tr: tr}
	m.w.SetTxnPolicy(m.pol)
	rng := rand.New(rand.NewSource(seed))
	gold := float64(marketPrice * (marketHorizon + 1))
	s := tr.begin("core.populate")
	deep := true
	for remaining := marketPairs; remaining > 0; deep = !deep {
		n := min(600+rng.Intn(40), remaining)
		stock := marketHorizon
		if !deep {
			stock = 1 + rng.Intn(marketWarm)
		}
		_, buyers, err := core.PopulateMarket(m.w, workload.Market{
			Sellers: n, BuyersPerItem: 1, Stock: stock, Price: marketPrice, Gold: gold,
		})
		if err != nil {
			return nil, err
		}
		if deep {
			m.deep = append(m.deep, buyers...)
		}
		m.buyers += len(buyers)
		m.gold0 += gold * float64(len(buyers))
		m.stock0 += float64(stock * n)
		remaining -= n
	}
	tr.end(s)
	for i := 0; i < marketWarm; i++ {
		if err := m.frame(false); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// frame is one closed-loop frame: a tick in which every buyer submits one
// atomic purchase.
func (m *market) frame(traced bool) error {
	m.tr.on = traced
	s := m.tr.begin("engine.tick")
	err := m.w.RunTick()
	m.tr.end(s)
	return err
}

func runMarket(cfg runConfig) (*report, error) {
	r := newReport()
	m, walls, setupSpans, err := repeatSetup(cfg.trace, func(tr *tracer) (*market, error) {
		return buildMarket(cfg.seed, tr)
	})
	if err != nil {
		return nil, err
	}
	r.setupMetrics(walls, setupSpans)

	sub0, com0 := m.pol.submitted, m.pol.committed
	c, err := runClosed(r, cfg, m.w, m.tr, 2*marketPairs, m.frame)
	if err != nil {
		return nil, err
	}
	r.samples["warmup_ticks"] = marketWarm
	m.check(r)
	if err := c.finish(r, m.w, m.c, m.opts, "Trader"); err != nil {
		return nil, err
	}
	if cfg.trace {
		total, n := c.layers(r, 0, m.w.Partitions(), "engine.tick")
		r.layer["txn.admit_ms"] = float64(total["txn.admit"]) / n / 1e6
		r.txnLayers(m.pol.submitted-sub0, m.pol.committed-com0, c.win.delta().TxnCrossPart, c.win.seconds())
		nested, admits := nestedIn(m.tr.spans, "txn.admit", "engine.tick")
		r.check("market.txn_admit_nests_in_tick", nested && admits > 0,
			"%d txn.admit spans, nested in engine.tick: %v", admits, nested)
	}
	return r, nil
}

// check verifies conservation and the admission accounting over the final
// state.
func (m *market) check(r *report) {
	ticks := m.w.Tick()
	var gold, stock float64
	negative := 0
	for _, id := range m.w.IDs("Trader") {
		g := m.w.MustGet("Trader", id, "gold").AsNumber()
		s := m.w.MustGet("Trader", id, "stock").AsNumber()
		gold += g
		stock += s
		if g < 0 || s < 0 {
			negative++
		}
	}
	r.check("market.gold_conserved", gold == m.gold0, "total gold %v, want %v", gold, m.gold0)
	r.check("market.stock_conserved", stock == m.stock0, "total stock %v, want %v", stock, m.stock0)
	r.check("market.none_negative", negative == 0, "%d traders with negative gold or stock", negative)
	p := m.pol
	r.check("market.every_buyer_submits", p.submitted == int64(m.buyers)*ticks,
		"%d submissions over %d ticks, want %d", p.submitted, ticks, int64(m.buyers)*ticks)
	r.check("market.outcomes_add_up", p.committed+p.aborts == p.submitted,
		"%d commits + %d aborts != %d submissions", p.committed, p.aborts, p.submitted)
	short := 0
	for _, id := range m.deep {
		if m.w.MustGet("Trader", id, "stock").AsNumber() != float64(ticks) {
			short++
		}
	}
	r.check("market.deep_buyers_commit_every_tick", short == 0,
		"%d of %d deep buyers missed a commit in %d ticks", short, len(m.deep), ticks)
	r.check("market.aborts_present", p.aborts > 0, "no aborts: shallow sellers never sold out")
}
