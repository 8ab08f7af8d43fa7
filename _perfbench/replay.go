package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"minegame/internal/core"
	"minegame/internal/game"
	"minegame/internal/miner"
	"minegame/internal/numeric"
	"minegame/internal/obs"
	"minegame/internal/verify"
)

// replayReport carries the per-layer figures a traced run's replays
// produce, keyed by metric name, plus the failures they met.
type replayReport struct {
	layers map[string]float64
	failed int
	notes  []string
}

// family selects the solver stack a replayed market runs on.
type family int

const (
	famExact family = iota
	famClassed
	famTopo
)

// target is one market replayed through the library.
type target struct {
	fam   family
	cfg   core.Config
	cp    miner.ClassedPopulation
	betas []float64
	req   int64 // request id the replay's spans carry
}

// Span names of the replayed library calls, per family.
var (
	solveSpan = [...]string{"core.stackelberg", "core.stackelberg_classed", "core.stackelberg_topo"}
	warmSpan  = [...]string{"core.warm_resolve", "core.warm_resolve_classed", ""}
	certSpan  = [...]string{"verify.certify_stackelberg", "verify.certify_classed", "verify.certify_topo"}
)

// brCalls is how many best responses one miner.best_response span
// times, so the per-call figure is well above the clock's resolution.
const brCalls = 1000

// warmProbes is how many grid-price probes each replay times.
const warmProbes = 256

// solveCounts are the program's own counters over one two-stage solve.
type solveCounts struct {
	probes, memoHits, sweeps, rounds, brCalls, kktHits int64
	evictions                                          int64
}

// replayOut is what one replay measured.
type replayOut struct {
	solveS, coldS, warmS float64 // warmS: mean over the grid probes
	counts               solveCounts
	mallocs, bytes       uint64
}

// solved is a two-stage result of any family.
type solved struct {
	res     core.StackelbergResult // exact and topo
	classed core.ClassedStackelbergResult
}

// twoStage runs the target's two-stage solve on the given cache. The
// topo solver ignores an external cache by design (the betas are part
// of the market's identity).
func (t target) twoStage(ob *obs.Observer, cache *core.DemandCache) (solved, error) {
	opts := core.StackelbergOptions{Workers: 1, Observer: ob, DemandCache: cache}
	var (
		s   solved
		err error
	)
	switch t.fam {
	case famExact:
		s.res, err = core.SolveStackelberg(t.cfg, opts)
	case famClassed:
		s.classed, err = core.SolveStackelbergClassed(t.cfg, t.cp, opts)
		s.res.Prices, s.res.Converged = s.classed.Prices, s.classed.Converged
	default:
		s.res, err = core.SolveStackelbergTopo(t.cfg, t.betas, opts)
	}
	if err == nil && !s.res.Converged {
		err = fmt.Errorf("leader stage did not converge")
	}
	return s, err
}

// followerSolve solves the miner subgame at p from start (nil: the
// solver's own seed) and returns the representative requests.
func (t target) followerSolve(ob *obs.Observer, p core.Prices, start []numeric.Point2) ([]numeric.Point2, error) {
	opts := game.NEOptions{Observer: ob}
	switch t.fam {
	case famExact:
		eq, err := core.SolveMinerEquilibriumFrom(t.cfg, p, opts, start)
		return eq.Requests, err
	case famClassed:
		// The classed demand oracle seeds every probe at its own prices
		// rather than from an anchor, so its probes are replayed that way.
		eq, err := core.SolveMinerEquilibriumClassed(t.cfg, t.cp, p, opts)
		return eq.Requests, err
	default:
		eq, err := core.SolveMinerEquilibriumTopoFrom(t.cfg, t.betas, p, opts, start)
		return eq.Requests, err
	}
}

// certify checks a two-stage result with internal/verify.
func (t target) certify(s solved, ob *obs.Observer) error {
	vopts := verify.Options{Observer: ob}
	var (
		cert verify.Certificate
		err  error
	)
	switch t.fam {
	case famExact:
		cert, err = verify.CertifyStackelberg(t.cfg, s.res, vopts)
	case famClassed:
		cert, err = verify.CertifyClassed(t.cfg, t.cp, s.classed.Prices, s.classed.Follower, vopts)
	default:
		cert, err = verify.CertifyStackelbergTopo(t.cfg, t.betas, s.res, vopts)
	}
	if err != nil {
		return err
	}
	return cert.Err()
}

// counterNames are the program counters a solve's counts come from.
var counterNames = [...]string{
	"core.demand_probes_total", "core.demand_memo_hits_total", "game.sweeps_total",
	"game.leader_rounds_total", "miner.best_response_calls_total", "miner.kkt_warm_hits_total",
}

// countedSolve runs one two-stage solve on cache and reads its counts.
func (t target) countedSolve(ob *obs.Observer, cache *core.DemandCache) (solved, time.Duration, solveCounts, error) {
	c0 := ob.Snapshot().Counters
	start := time.Now()
	s, err := t.twoStage(ob, cache)
	d := time.Since(start)
	c1 := ob.Snapshot().Counters
	delta := func(i int) int64 { return c1[counterNames[i]] - c0[counterNames[i]] }
	c := solveCounts{
		probes: delta(0), memoHits: delta(1), sweeps: delta(2), rounds: delta(3),
		brCalls: delta(4), kktHits: delta(5), evictions: cache.Stats().Evictions,
	}
	return s, d, c, err
}

// quietAllocs runs one cold two-stage solve with observability off and
// returns its heap allocations (count and bytes): the solver's own
// allocations, without the telemetry's.
func (t target) quietAllocs() (uint64, uint64, error) {
	prev := obs.SetDefault(nil)
	defer obs.SetDefault(prev)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	_, err := t.twoStage(nil, core.NewDemandCache(0, nil))
	runtime.ReadMemStats(&ms1)
	return ms1.Mallocs - ms0.Mallocs, ms1.TotalAlloc - ms0.TotalAlloc, err
}

// replayOne times every library layer behind one market: the cold
// two-stage solve, the warm re-solve on the same cache, a cold probe
// at the start prices, warm probes at seeded grid prices, the best
// response at the equilibrium environment, a fixed-price solve at the
// winning prices, and the certificate. The first solve's counts come
// from the program's counters; a second, unobserved solve gives the
// allocation figures.
func replayOne(t target, tr *tracer, ob *obs.Observer, rng *rand.Rand) (replayOut, error) {
	var (
		out replayOut
		end time.Time
	)
	root := tr.reserve()
	rootStart := time.Now()
	defer func() { tr.recordAs(root, "replay.market", t.req, 0, rootStart, time.Now()) }()

	// A fresh cache with the daemon's default cap, as each new market
	// gets in the daemon.
	cache := core.NewDemandCache(0, ob)
	start := time.Now()
	s, d, counts, err := t.countedSolve(ob, cache)
	tr.record(solveSpan[t.fam], t.req, root, start, start.Add(d))
	if err != nil {
		return out, fmt.Errorf("replay %s: %w", solveSpan[t.fam], err)
	}
	out.solveS, out.counts = d.Seconds(), counts

	if name := warmSpan[t.fam]; name != "" {
		start = time.Now()
		_, err := t.twoStage(ob, cache)
		tr.record(name, t.req, root, start, time.Now())
		if err != nil {
			return out, fmt.Errorf("replay %s: %w", name, err)
		}
	}

	if out.mallocs, out.bytes, err = t.quietAllocs(); err != nil {
		return out, fmt.Errorf("replay unobserved solve: %w", err)
	}

	startPrices := core.Prices{Edge: 2*t.cfg.CostE + 1, Cloud: 2*t.cfg.CostC + 1}
	start = time.Now()
	anchor, err := t.followerSolve(ob, startPrices, nil)
	end = time.Now()
	tr.record("core.demand_probe_cold", t.req, root, start, end)
	if err != nil {
		return out, fmt.Errorf("replay cold probe: %w", err)
	}
	out.coldS = end.Sub(start).Seconds()

	// Grid prices drawn from the leader stage's default 60-point grids
	// over [C+ε, 40·max(1, C_e, C_c)].
	hi := 40 * max(1, t.cfg.CostE, t.cfg.CostC)
	var warm float64
	for i := 0; i < warmProbes; i++ {
		p := core.Prices{
			Edge:  t.cfg.CostE + 1e-6 + (hi-t.cfg.CostE)*float64(rng.Intn(60))/59,
			Cloud: t.cfg.CostC + 1e-6 + (hi-t.cfg.CostC)*float64(rng.Intn(60))/59,
		}
		start = time.Now()
		_, err := t.followerSolve(ob, p, anchor)
		end = time.Now()
		tr.record("core.demand_probe_warm", t.req, root, start, end)
		if err != nil {
			return out, fmt.Errorf("replay warm probe at %+v: %w", p, err)
		}
		warm += end.Sub(start).Seconds()
	}
	out.warmS = warm / warmProbes

	start = time.Now()
	reps, err := t.followerSolve(ob, s.res.Prices, nil)
	tr.record("core.fixed_price_solve", t.req, root, start, time.Now())
	if err != nil {
		return out, fmt.Errorf("replay fixed-price solve: %w", err)
	}
	params, budget, env := t.brInputs(s.res.Prices, reps)
	start = time.Now()
	for i := 0; i < brCalls; i++ {
		miner.BestResponseConnected(params, budget, env)
	}
	tr.record("miner.best_response", t.req, root, start, time.Now())

	start = time.Now()
	err = t.certify(s, ob)
	tr.record(certSpan[t.fam], t.req, root, start, time.Now())
	if err != nil {
		return out, fmt.Errorf("replay certificate: %w", err)
	}
	return out, nil
}

// brInputs returns miner 0's (class 0's) best-response inputs at the
// equilibrium: its parameters, its budget and the rivals' totals.
func (t target) brInputs(p core.Prices, reps []numeric.Point2) (miner.Params, float64, miner.Env) {
	params := t.cfg.Params(p)
	var edge, cloud float64
	for k, r := range reps {
		n := 1.0
		if t.fam == famClassed {
			n = float64(t.cp.Classes[k].Count)
		}
		edge += n * r.E
		cloud += n * r.C
	}
	budget := t.cfg.Budget(0)
	switch t.fam {
	case famClassed:
		budget = t.cp.Classes[0].Budget
	case famTopo:
		params.Beta = t.betas[0]
	}
	env := miner.Env{EdgeOthers: max(0, edge-reps[0].E), CloudOthers: max(0, cloud-reps[0].C)}
	return params, budget, env
}

// replayMarkets replays every target and reduces the results to the
// core/game/miner/verify layer metrics. primary names the family the
// probe reconciliation is taken against. The first target is solved a
// second time to check that its counts repeat exactly.
func replayMarkets(targets []target, primary family, tr *tracer, ob *obs.Observer, rng *rand.Rand) (replayReport, error) {
	rep := replayReport{layers: map[string]float64{}}
	var (
		total               solveCounts
		mallocs, bytes      uint64
		reconcile, overhead []float64
		coldS, warmS        []float64
		first               replayOut
	)
	for i, t := range targets {
		out, err := replayOne(t, tr, ob, rng)
		if err != nil {
			return rep, err
		}
		if i == 0 {
			first = out
		}
		c := out.counts
		total.probes += c.probes
		total.memoHits += c.memoHits
		total.sweeps += c.sweeps
		total.rounds += c.rounds
		total.brCalls += c.brCalls
		total.kktHits += c.kktHits
		total.evictions += c.evictions
		mallocs += out.mallocs
		bytes += out.bytes
		if t.fam == primary {
			probeTime := out.coldS + float64(c.probes)*out.warmS
			reconcile = append(reconcile, probeTime/out.solveS)
			overhead = append(overhead, out.solveS-probeTime)
			coldS = append(coldS, out.coldS)
			warmS = append(warmS, out.warmS)
		}
	}
	if len(targets) > 0 {
		_, _, again, err := targets[0].countedSolve(ob, core.NewDemandCache(0, ob))
		if err != nil {
			return rep, fmt.Errorf("repeat solve: %w", err)
		}
		allocs, _, err := targets[0].quietAllocs()
		if err != nil {
			return rep, fmt.Errorf("repeat solve: %w", err)
		}
		if again != first.counts {
			rep.failed++
			rep.notes = append(rep.notes, fmt.Sprintf("COUNTS DID NOT REPEAT on the same market: %+v, then %+v", first.counts, again))
		} else {
			rep.notes = append(rep.notes, fmt.Sprintf("counts repeat exactly on a fresh cache: %+v", again))
		}
		rep.notes = append(rep.notes, fmt.Sprintf("unobserved solve allocations %d, then %d (exact: %v)", first.mallocs, allocs, first.mallocs == allocs))
	}
	n := float64(len(targets))
	l := rep.layers
	l["core.stackelberg_s"] = median(tr.durations(solveSpan[famExact]))
	l["core.stackelberg_classed_s"] = median(tr.durations(solveSpan[famClassed]))
	l["core.stackelberg_topo_s"] = median(tr.durations(solveSpan[famTopo]))
	l["core.warm_resolve_s"] = median(tr.durations(warmSpan[famExact]))
	l["core.warm_resolve_classed_s"] = median(tr.durations(warmSpan[famClassed]))
	l["core.demand_probe_cold_s"] = median(coldS)
	l["core.demand_probe_warm_s"] = median(warmS)
	l["core.fixed_price_solve_s"] = median(tr.durations("core.fixed_price_solve"))
	l["core.probe_reconcile_ratio"] = median(reconcile)
	l["game.leader_overhead_s"] = median(overhead)
	l["core.demand_probes_per_solve"] = ratio(float64(total.probes), n)
	l["core.demand_memo_hits_per_solve"] = ratio(float64(total.memoHits), n)
	l["core.demand_cache_evictions_per_solve"] = ratio(float64(total.evictions), n)
	l["core.allocs_per_probe"] = ratio(float64(mallocs), float64(total.probes))
	l["core.bytes_per_solve"] = ratio(float64(bytes), n)
	l["game.leader_grid_evals_per_solve"] = ratio(float64(total.probes+total.memoHits), n)
	l["game.leader_rounds_per_solve"] = ratio(float64(total.rounds), n)
	l["game.sweeps_per_probe"] = ratio(float64(total.sweeps), float64(total.probes))
	l["miner.best_response_s"] = median(tr.durations("miner.best_response")) / brCalls
	l["miner.kkt_warm_hit_ratio"] = ratio(float64(total.kktHits), float64(total.brCalls))
	l["miner.best_response_calls_per_sweep"] = ratio(float64(total.brCalls), float64(total.sweeps))
	l["verify.certify_stackelberg_s"] = median(tr.durations(certSpan[famExact]))
	l["verify.certify_classed_s"] = median(tr.durations(certSpan[famClassed]))
	l["verify.certify_topo_s"] = median(tr.durations(certSpan[famTopo]))
	return rep, nil
}
