package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"minegame/internal/chain/topo"
	"minegame/internal/core"
	"minegame/internal/netmodel"
	"minegame/internal/obs"
	"minegame/internal/verify"
)

const (
	// topoPipelinesPerSec sizes the topo-price list on the 2-core
	// calibration host.
	topoPipelinesPerSec = 3
	// The race every pipeline runs: 8 replicas of 4,000 blocks at the
	// blocksim defaults (600 s blocks, 30 s base link delay, 60% quorum).
	topoReplicas  = 8
	topoBlocks    = 4000
	topoInterval  = 600
	topoLinkDelay = 30
	topoQuorum    = 0.6
	// topoSample is how many pipelines a traced run replays.
	topoSample = 3
)

// pipeline is one topo-price operation: race a peer graph, price the
// market under the measured per-miner fork rates, certify the prices.
type pipeline struct {
	nodes []topo.Node
	delay []float64 // spoke delays
	seed  int64     // race seed
	cfg   core.Config

	race    topo.Result
	res     core.StackelbergResult
	cert    verify.Certificate
	err     error
	mallocs uint64 // allocations during the race (traced runs)
}

// topoPrice is the topo-price workload: the library pipeline of
// `blocksim -topo … -solve -certify`, one operation at a time.
type topoPrice struct {
	seed  int64
	pipes []pipeline
	lat   []time.Duration
}

// newPipeline draws one pipeline: n unit-hashrate nodes alternating
// edge and cloud placement on a star whose spokes stretch with the node
// index (the blocksim -topo star, with seeded jitter), priced by a
// connected market of n miners.
//
// Scale-free graphs are left out: on them SolveStackelbergTopo often
// returns an unconverged follower that fails its certificate (see
// README.md), and a workload must not fail operations.
func newPipeline(rng *rand.Rand, n int, reward float64) pipeline {
	p := pipeline{seed: rng.Int63()}
	for i := 0; i < n; i++ {
		loc := topo.LocationCloud
		if i%2 == 0 {
			loc = topo.LocationEdge
		}
		p.nodes = append(p.nodes, topo.Node{Hashrate: 1, Location: loc})
	}
	for i := 1; i < n; i++ {
		p.delay = append(p.delay, topoLinkDelay*float64(i)*(0.9+0.2*rng.Float64()))
	}
	p.cfg = core.Config{
		N: n, Budgets: []float64{budgetLo + budgetSpan*rng.Float64()}, Reward: reward,
		Beta: 0.5, SatisfyProb: 0.88 + 0.04*rng.Float64(), Mode: netmodel.Connected, CostE: 1, CostC: 0.5,
	}
	return p
}

// execute runs the pipeline, recording a span per stage.
func (p *pipeline) execute(tr *tracer, req int64) {
	root := tr.reserve()
	rootStart := time.Now()
	defer func() { tr.recordAs(root, "topo.pipeline", req, 0, rootStart, time.Now()) }()
	g, err := topo.Star(p.nodes, p.delay)
	if err != nil {
		p.err = err
		return
	}
	var ms0, ms1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	start := time.Now()
	p.race, err = topo.EstimateReplicated(g, topo.Config{Interval: topoInterval, Blocks: topoBlocks, Quorum: topoQuorum}, p.seed, topoReplicas)
	tr.record("topo.race", req, root, start, time.Now())
	if tr != nil {
		runtime.ReadMemStats(&ms1)
		p.mallocs = ms1.Mallocs - ms0.Mallocs
	}
	if err != nil {
		p.err = err
		return
	}
	betas := p.race.Betas()
	start = time.Now()
	p.res, err = core.SolveStackelbergTopo(p.cfg, betas, core.StackelbergOptions{})
	tr.record("core.stackelberg_topo.pipeline", req, root, start, time.Now())
	if err != nil {
		p.err = err
		return
	}
	start = time.Now()
	p.cert, p.err = verify.CertifyStackelbergTopo(p.cfg, betas, p.res, verify.Options{})
	tr.record("verify.certify_topo.pipeline", req, root, start, time.Now())
}

func setupTopoPrice(seed int64, secs int, _ *obs.Observer) (bench, error) {
	rng := rand.New(rand.NewSource(seed))
	n := max(2, int(math.Round(float64(secs)*topoPipelinesPerSec)))
	sizes := strata(rng, []int{3, 4, 5, 6}, n)
	w := &topoPrice{seed: seed}
	for i := 0; i < n; i++ {
		w.pipes = append(w.pipes, newPipeline(rng, sizes[i], rewardLo+rewardSpan*rng.Float64()))
	}
	// Priming: fixed, seed-independent pipelines, so code paths and the
	// heap are warm.
	prng := rand.New(rand.NewSource(1))
	for _, n := range []int{4, 5} {
		prime := newPipeline(prng, n, rewardPrime)
		if prime.execute(nil, 0); prime.err != nil {
			return nil, fmt.Errorf("priming pipeline: %w", prime.err)
		}
	}
	return w, nil
}

func (w *topoPrice) close() {}

func (w *topoPrice) run(tr *tracer) ([]time.Duration, error) {
	w.lat = make([]time.Duration, len(w.pipes))
	for i := range w.pipes {
		start := time.Now()
		w.pipes[i].execute(tr, int64(i))
		w.lat[i] = time.Since(start)
	}
	return w.lat, nil
}

// check accepts a pipeline whose race accounting balances, whose betas
// are fork rates, and whose leader stage and follower both converged to
// prices and demands that internal/verify certifies.
func (w *topoPrice) check() (int, []byte, error) {
	ok := 0
	var answers []byte
	for _, p := range w.pipes {
		if p.err == nil && p.res.Converged && p.res.Follower.Converged && p.cert.OK && raceBalances(p.race) {
			ok++
		}
		b, err := json.Marshal(struct {
			Race  topo.Result
			Solve core.StackelbergResult
		}{p.race, p.res})
		if err != nil {
			return 0, nil, err
		}
		answers = append(answers, b...)
	}
	return ok, answers, nil
}

// raceBalances checks the race's credit accounting: every decided block
// is credited or orphaned, and every eligible block either won its
// height or was a direct loss.
func raceBalances(r topo.Result) bool {
	decided := 0
	for _, s := range r.Stats {
		if s.Mined != s.Credited+s.Orphaned || s.Credited+s.DirectLosses != s.Eligible {
			return false
		}
		if s.Beta < 0 || s.Beta >= 1 {
			return false
		}
		decided += s.Mined
	}
	return decided == r.Decided
}

// replay replays a seeded sample of the pipelines' markets through the
// topology solver stack and reports the race figures of the traced
// pass.
func (w *topoPrice) replay(tr *tracer, ob *obs.Observer) (replayReport, error) {
	rng := rand.New(rand.NewSource(w.seed + 1))
	var targets []target
	for _, i := range rng.Perm(len(w.pipes))[:min(topoSample, len(w.pipes))] {
		p := w.pipes[i]
		targets = append(targets, target{fam: famTopo, cfg: p.cfg, betas: p.race.Betas(), req: int64(i)})
	}
	rep, err := replayMarkets(targets, famTopo, tr, ob, rng)
	if err != nil {
		return rep, err
	}
	var events, mallocs float64
	for _, p := range w.pipes {
		events += float64(p.race.Events)
		mallocs += float64(p.mallocs)
	}
	raceS := tr.durations("topo.race")
	var total float64
	for _, d := range raceS {
		total += d
	}
	rep.layers["topo.race_s"] = median(raceS)
	rep.layers["topo.events_per_s"] = ratio(events, total)
	rep.layers["topo.allocs_per_event"] = ratio(mallocs, events)
	rep.layers["topo.events_per_op"] = events / float64(len(w.pipes))
	rep.layers["verify.certify_topo_s"] = median(tr.durations("verify.certify_topo.pipeline"))
	return rep, nil
}
