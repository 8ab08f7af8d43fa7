package core

// Topology-aware game solvers: the miner subgame and the two-stage
// Stackelberg game with PER-MINER fork rates β_i, as measured by the
// peer-graph race simulator (internal/chain/topo), instead of the
// paper's single scalar β. Miner i best-responds under its own orphan
// risk — a miner parked far from the hashpower discounts its reward
// more than one sitting next to it — and the leaders price against the
// heterogeneous demand that induces. With a uniform betas vector every
// code path collapses to the scalar solvers' arithmetic, which the
// degenerate-case tests pin bit for bit.

import (
	"fmt"
	"math"

	"minegame/internal/game"
	"minegame/internal/miner"
	"minegame/internal/netmodel"
	"minegame/internal/numeric"
	"minegame/internal/obs"
)

// TopoCertifier independently validates a solved per-miner-β follower
// equilibrium — the topology analog of Certifier (internal/verify
// supplies implementations). A non-nil error means certification failed.
type TopoCertifier func(cfg Config, betas []float64, p Prices, eq MinerEquilibrium) error

// validateBetas checks a per-miner fork-rate vector against the config.
func validateBetas(cfg Config, betas []float64) error {
	if len(betas) != cfg.N {
		return fmt.Errorf("core: %d fork rates for %d miners", len(betas), cfg.N)
	}
	for i, b := range betas {
		if math.IsNaN(b) || b < 0 || b >= 1 {
			return fmt.Errorf("core: fork rate beta[%d] = %g outside [0, 1)", i, b)
		}
	}
	return nil
}

// paramsTopo is miner i's parameter set: the shared game constants with
// the miner's own fork rate in place of the scalar β.
func (c Config) paramsTopo(p Prices, betas []float64, i int) miner.Params {
	params := c.Params(p)
	params.Beta = betas[i]
	return params
}

// summarizeTopo mirrors summarize with per-miner fork rates: utilities
// and winning probabilities charge each miner its own β_i.
func (c Config) summarizeTopo(p Prices, betas []float64, prof miner.Profile, iters int, converged bool) (MinerEquilibrium, error) {
	eq := MinerEquilibrium{
		Requests:   prof,
		Iterations: iters,
		Converged:  converged,
	}
	eq.EdgeDemand, eq.CloudDemand, eq.TotalDemand = prof.Totals()
	var err error
	if eq.Utilities, err = miner.UtilitiesTopo(c.Params(p), betas, prof); err != nil {
		return MinerEquilibrium{}, err
	}
	if eq.WinProbs, err = miner.WinProbsTopo(betas, c.SatisfyProb, prof); err != nil {
		return MinerEquilibrium{}, err
	}
	return eq, nil
}

// SolveMinerEquilibriumTopo computes the miner-subgame equilibrium at
// the given prices with per-miner fork rates (connected mode only: the
// topology race models the connected network's propagation asymmetry).
func SolveMinerEquilibriumTopo(cfg Config, betas []float64, p Prices, opts game.NEOptions) (MinerEquilibrium, error) {
	return SolveMinerEquilibriumTopoFrom(cfg, betas, p, opts, nil)
}

// SolveMinerEquilibriumTopoFrom is SolveMinerEquilibriumTopo with an
// explicit starting profile (nil picks the config's default seed; the
// scalar-β seed is only a warm start, so heterogeneous betas still
// converge to their own equilibrium). The given profile is not mutated.
func SolveMinerEquilibriumTopoFrom(cfg Config, betas []float64, p Prices, opts game.NEOptions, start miner.Profile) (MinerEquilibrium, error) {
	if err := cfg.Validate(); err != nil {
		return MinerEquilibrium{}, err
	}
	if cfg.Mode != netmodel.Connected {
		return MinerEquilibrium{}, fmt.Errorf("core: topology solver supports connected mode only, got %v", cfg.Mode)
	}
	if err := validateBetas(cfg, betas); err != nil {
		return MinerEquilibrium{}, err
	}
	if err := cfg.Params(p).Validate(); err != nil {
		return MinerEquilibrium{}, err
	}
	if opts.Tol <= 0 {
		opts.Tol = 1e-6
	}
	if start == nil {
		start = cfg.seedProfile(p)
	} else if len(start) != cfg.N {
		return MinerEquilibrium{}, fmt.Errorf("core: start profile has %d entries, config has %d miners", len(start), cfg.N)
	}
	br := func(i int, own, others numeric.Point2) numeric.Point2 {
		return miner.BestResponseConnected(cfg.paramsTopo(p, betas, i), cfg.Budget(i), envFromOthers(others), own)
	}
	res := game.SolveNEAggregate(start, br, opts)
	if res.Canceled {
		return MinerEquilibrium{}, fmt.Errorf("topo miner subgame: %w", game.ErrCanceled)
	}
	if prof, ok := cfg.escapeZeroCollapse(p, res.Profile); ok {
		res = game.SolveNEAggregate(prof, br, opts)
		if res.Canceled {
			return MinerEquilibrium{}, fmt.Errorf("topo miner subgame: %w", game.ErrCanceled)
		}
	}
	return cfg.summarizeTopo(p, betas, res.Profile, res.Iterations, res.Converged)
}

// DeviationsTopo is the per-miner-β analog of Deviations: gains[i] is
// the largest utility improvement miner i can realize by a unilateral
// best-response deviation, with every miner's utility and best response
// charging its own β_i. The raw material of the topology ε-Nash
// certificate.
func DeviationsTopo(cfg Config, betas []float64, p Prices, prof miner.Profile) ([]float64, error) {
	if cfg.Mode != netmodel.Connected {
		return nil, fmt.Errorf("core: topology solver supports connected mode only, got %v", cfg.Mode)
	}
	if err := validateBetas(cfg, betas); err != nil {
		return nil, err
	}
	br := func(i int, own, others numeric.Point2) numeric.Point2 {
		return miner.BestResponseConnected(cfg.paramsTopo(p, betas, i), cfg.Budget(i), envFromOthers(others))
	}
	utility := func(i int, own, others numeric.Point2) float64 {
		return miner.UtilityConnected(cfg.paramsTopo(p, betas, i), own, envFromOthers(others))
	}
	return game.DeviationsAggregate(prof, br, utility), nil
}

// SolveStackelbergTopo runs backward induction on the two-stage game
// against per-miner fork rates: every leader price probe anticipates the
// heterogeneous-β miner equilibrium underneath (always solved
// numerically — the closed forms assume one shared β), and the leader
// stage uses the Theorem 4 commitment structure. Connected mode only.
//
// The solve always builds a fresh per-solve demand cache: an external
// StackelbergOptions.DemandCache is keyed to one market, and the betas
// vector is part of this market's identity, so a resident cache filled
// by the scalar solvers must never warm-start a topology solve.
func SolveStackelbergTopo(cfg Config, betas []float64, opts StackelbergOptions) (StackelbergResult, error) {
	if err := cfg.Validate(); err != nil {
		return StackelbergResult{}, err
	}
	if cfg.Mode != netmodel.Connected {
		return StackelbergResult{}, fmt.Errorf("core: topology solver supports connected mode only, got %v", cfg.Mode)
	}
	if err := validateBetas(cfg, betas); err != nil {
		return StackelbergResult{}, err
	}
	opts.DemandCache = nil
	opts = opts.withDefaults(cfg)
	ob := opts.observer()
	span := ob.StartSpan("core.stackelberg_topo", obs.Fields{"miners": cfg.N})
	probes := ob.Counter("core.demand_probes_total")
	memoHits := ob.Counter("core.demand_memo_hits_total")

	// Anchor warm start, fixed before the price grids fan out so every
	// probe's result is a pure function of its price point (worker count
	// and arrival order cannot reach it) — same discipline as the scalar
	// solver.
	memo := opts.demandCacheOrNew()
	startPrices := Prices{Edge: opts.StartE, Cloud: opts.StartC}
	anchor := memo.anchorAt(startPrices, func() (miner.Profile, error) {
		eq, err := SolveMinerEquilibriumTopo(cfg, betas, startPrices, opts.Follower)
		if err != nil {
			return nil, err
		}
		return eq.Requests, nil
	})
	if opts.canceled() {
		span.End(obs.Fields{"canceled": true})
		return StackelbergResult{}, fmt.Errorf("stackelberg topo: %w", game.ErrCanceled)
	}

	oracle := func(p Prices) demand {
		d, hit := memo.get(p, func() (demand, miner.Profile, error) {
			probes.Inc()
			eq, err := SolveMinerEquilibriumTopoFrom(cfg, betas, p, opts.Follower, anchor)
			if err != nil {
				return demand{}, nil, err
			}
			return demand{edge: eq.EdgeDemand, cloud: eq.CloudDemand, ok: true}, eq.Requests, nil
		})
		if hit {
			memoHits.Inc()
		}
		return d
	}

	esp := game.Leader{
		Name: "ESP",
		Profit: func(own, other float64) float64 {
			d := oracle(Prices{Edge: own, Cloud: other})
			if !d.ok {
				return math.Inf(-1)
			}
			return (own - cfg.CostE) * d.edge
		},
		Bracket: func(other float64) (float64, float64) {
			lo := cfg.CostE + 1e-6
			return lo, math.Max(opts.MaxPriceE, lo*1.5)
		},
	}
	csp := game.Leader{
		Name: "CSP",
		Profit: func(own, other float64) float64 {
			d := oracle(Prices{Edge: other, Cloud: own})
			if !d.ok {
				return math.Inf(-1)
			}
			return (own - cfg.CostC) * d.cloud
		},
		Bracket: func(other float64) (float64, float64) {
			return cfg.CostC + 1e-6, opts.MaxPriceC
		},
	}

	lead, err := game.SolveLeaderFollower(esp, csp, opts.Leader)
	// A cancellation that landed mid-grid leaves the leader stage
	// computed from abandoned (-Inf) probes — a meaningless result, or
	// an error such as "no feasible price" — so report the cancellation
	// instead: a caller may cache an ordinary error, never this one.
	if opts.canceled() {
		span.End(obs.Fields{"canceled": true})
		return StackelbergResult{}, fmt.Errorf("stackelberg topo: %w", game.ErrCanceled)
	}
	if err != nil {
		span.End(obs.Fields{"failed": true})
		return StackelbergResult{}, fmt.Errorf("topo leader stage: %w", err)
	}
	prices := Prices{Edge: lead.PriceA, Cloud: lead.PriceB}
	start := memo.profileAt(prices)
	if start == nil {
		start = anchor
	}
	follower, err := SolveMinerEquilibriumTopoFrom(cfg, betas, prices, opts.Follower, start)
	if err != nil {
		span.End(obs.Fields{"failed": true})
		return StackelbergResult{}, fmt.Errorf("topo follower stage at equilibrium prices %+v: %w", prices, err)
	}
	if opts.CertifyTopoAfterSolve != nil {
		if err := opts.CertifyTopoAfterSolve(cfg, betas, prices, follower); err != nil {
			span.End(obs.Fields{"failed": true})
			return StackelbergResult{}, fmt.Errorf("certify topo follower equilibrium at prices %+v: %w", prices, err)
		}
	}
	res := StackelbergResult{
		Prices:     prices,
		Follower:   follower,
		ProfitE:    (prices.Edge - cfg.CostE) * follower.EdgeDemand,
		ProfitC:    (prices.Cloud - cfg.CostC) * follower.CloudDemand,
		Iterations: lead.Iterations,
		Converged:  lead.Converged,
	}
	span.End(obs.Fields{
		"price_e": res.Prices.Edge, "price_c": res.Prices.Cloud,
		"profit_e": res.ProfitE, "profit_c": res.ProfitC,
		"leader_iterations": res.Iterations, "converged": res.Converged,
	})
	if !res.Converged {
		ob.ReportAnomaly("leader_not_converged", obs.Fields{
			"mode": "topo", "iterations": res.Iterations,
			"price_e": prices.Edge, "price_c": prices.Cloud,
		})
	}
	return res, nil
}
