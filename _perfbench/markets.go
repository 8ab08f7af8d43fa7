package main

import (
	"fmt"
	"math"
	"math/rand"

	"minegame/internal/core"
	"minegame/internal/miner"
	"minegame/internal/netmodel"
	"minegame/internal/serve"
)

// market is one generated market: its wire form, sent to the daemon,
// and the solver inputs the benchmark derives from it independently to
// replay and certify the daemon's answers.
type market struct {
	wire    serve.Market
	classed bool
	cfg     core.Config
	cp      miner.ClassedPopulation
}

// newMarket derives the solver inputs of a connected-mode wire market.
func newMarket(w serve.Market) (market, error) {
	m := market{wire: w, classed: len(w.Classes) > 0}
	m.cfg = core.Config{
		N: w.N, Budgets: w.Budgets, Reward: w.Reward, Beta: w.Beta,
		SatisfyProb: w.H, Mode: netmodel.Connected, CostE: w.CE, CostC: w.CC,
	}
	if !m.classed {
		return m, m.cfg.Validate()
	}
	cs := make([]miner.Class, len(w.Classes))
	for i, c := range w.Classes {
		cs[i] = miner.Class{Budget: c.Budget, Count: c.Count}
	}
	cp, err := miner.FromClasses(cs)
	if err != nil {
		return m, err
	}
	m.cp = cp
	m.cfg.N = cp.N()
	m.cfg.Budgets = []float64{w.Budget}
	return m, m.cfg.Validate()
}

// The game constants every generated market jitters around: the
// daemon tests' reference market (R = 100, β = 0.5, h = 0.9, C_e = 1,
// C_c = 0.5) with budgets of 8–12, where budgets bind and a
// heterogeneous solve takes a few hundred milliseconds. Priming
// markets use rewardPrime, outside the measured reward band, so no
// measured market can ever hit a result the priming pass cached.
const (
	rewardLo    = 100
	rewardSpan  = 4
	rewardPrime = 96
	budgetLo    = 8
	budgetSpan  = 4
)

// exactMarket draws a heterogeneous n-miner market, solved by the
// numeric follower at every demand probe. The budgets are a Latin
// hypercube sample of the budget band (one per n-th of it, in seeded
// order), so every market spans the band the same way.
func exactMarket(rng *rand.Rand, n int, reward float64) serve.Market {
	b := make([]float64, n)
	for i, slot := range rng.Perm(n) {
		b[i] = budgetLo + budgetSpan*(float64(slot)+rng.Float64())/float64(n)
	}
	return serve.Market{
		N: n, Budgets: b, Reward: reward,
		Beta: 0.48 + 0.04*rng.Float64(), H: 0.88 + 0.04*rng.Float64(),
		CE: 1, CC: 0.5,
	}
}

// classedMarket draws a k-class market of about total miners, sent as
// the wire class list: the daemon never sees a per-miner budget slice.
// Class budgets are evenly spaced over the budget band with seeded
// jitter; class sizes are seeded shares of the total.
func classedMarket(rng *rand.Rand, k, total int, reward float64) serve.Market {
	w := make([]float64, k)
	var sum float64
	for i := range w {
		w[i] = 0.5 + rng.Float64()
		sum += w[i]
	}
	cs := make([]serve.ClassSpec, k)
	for i := range cs {
		cs[i] = serve.ClassSpec{
			Budget: budgetLo + budgetSpan*(float64(i)+rng.Float64())/float64(k),
			Count:  1 + int(float64(total)*w[i]/sum),
		}
	}
	return serve.Market{
		Budget: budgetLo + budgetSpan/2, Reward: reward,
		Beta: 0.48 + 0.04*rng.Float64(), H: 0.88 + 0.04*rng.Float64(),
		CE: 1, CC: 0.5, Classes: cs,
	}
}

// logUniform draws an integer log-uniformly from [lo, hi].
func logUniform(rng *rand.Rand, lo, hi float64) int {
	return int(math.Round(lo * math.Pow(hi/lo, rng.Float64())))
}

// strata returns n values cycling through levels, each consecutive
// run of len(levels) a seeded permutation of them: every run covers
// every level once, so per-run totals barely move with the seed.
func strata(rng *rand.Rand, levels []int, n int) []int {
	out := make([]int, 0, n)
	for len(out) < n {
		for _, i := range rng.Perm(len(levels)) {
			out = append(out, levels[i])
		}
	}
	return out[:n]
}

// mustMarkets converts wire markets, failing on the first invalid one
// (a generator bug, never an input the benchmark should run).
func mustMarkets(ws []serve.Market) ([]market, error) {
	out := make([]market, len(ws))
	for i, w := range ws {
		m, err := newMarket(w)
		if err != nil {
			return nil, fmt.Errorf("generated market %d: %w", i, err)
		}
		out[i] = m
	}
	return out, nil
}
