package main

import (
	"fmt"
	"runtime"

	"minegame/internal/obs"
)

// perLayer lists every per-layer metric a traced run prints, with its
// unit. A layer the workload does not exercise reads 0 (README.md has
// the layer → end-to-end → workload map).
var perLayer = []struct{ name, unit string }{
	{"serve.result_cache_hit_ratio", "ratio"},
	{"serve.result_cache_evictions_per_op", "count"},
	{"serve.hit_request_s", "s"},
	{"serve.miss_request_s", "s"},
	{"serve.overhead_frac", "ratio"},
	{"serve.demand_cache_hit_ratio", "ratio"},
	{"serve.demand_cache_evictions_per_op", "count"},
	{"parallel.queue_wait_s", "s"},
	{"parallel.tasks_per_op", "count"},
	{"core.stackelberg_s", "s"},
	{"core.stackelberg_classed_s", "s"},
	{"core.stackelberg_topo_s", "s"},
	{"core.warm_resolve_s", "s"},
	{"core.warm_resolve_classed_s", "s"},
	{"core.demand_cache_evictions_per_solve", "count"},
	{"core.demand_probe_cold_s", "s"},
	{"core.demand_probe_warm_s", "s"},
	{"core.fixed_price_solve_s", "s"},
	{"core.probe_reconcile_ratio", "ratio"},
	{"core.demand_probes_per_solve", "count"},
	{"core.demand_memo_hits_per_solve", "count"},
	{"core.allocs_per_probe", "count"},
	{"core.bytes_per_solve", "B"},
	{"game.leader_overhead_s", "s"},
	{"game.leader_grid_evals_per_solve", "count"},
	{"game.leader_rounds_per_solve", "count"},
	{"game.sweeps_per_probe", "count"},
	{"miner.best_response_s", "s"},
	{"miner.kkt_warm_hit_ratio", "ratio"},
	{"miner.best_response_calls_per_sweep", "count"},
	{"verify.certify_stackelberg_s", "s"},
	{"verify.certify_classed_s", "s"},
	{"verify.certify_topo_s", "s"},
	{"verify.failures", "count"},
	{"topo.race_s", "s"},
	{"topo.events_per_s", "1/s"},
	{"topo.allocs_per_event", "count"},
	{"topo.events_per_op", "count"},
	{"trace.overhead_frac", "ratio"},
}

// counterLayers derives the serve and parallel layer metrics from the
// program's own counters over the traced pass.
func counterLayers(before, after obs.Snapshot, ops int) map[string]float64 {
	c := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	n := float64(ops)
	wait := after.Histograms["parallel.queue_wait_ms"]
	wait0 := before.Histograms["parallel.queue_wait_ms"]
	return map[string]float64{
		"serve.result_cache_hit_ratio": ratio(c("serve.result_cache_hits_total"),
			c("serve.result_cache_hits_total")+c("serve.result_cache_misses_total")),
		"serve.result_cache_evictions_per_op": c("serve.result_cache_evictions_total") / n,
		"serve.demand_cache_hit_ratio": ratio(c("serve.cache_hits_total"),
			c("serve.cache_hits_total")+c("serve.cache_misses_total")),
		"serve.demand_cache_evictions_per_op": c("serve.cache_evictions_total") / n,
		"parallel.queue_wait_s":               ratio(wait.Sum-wait0.Sum, float64(wait.Count-wait0.Count)) / 1e3,
		"parallel.tasks_per_op":               c("parallel.tasks_total") / n,
	}
}

// runTraced runs the list untraced, then again on a fresh build with an
// enabled observer installed as the process default and spans around
// every call, then replays a sample of markets; it prints the per-layer
// metrics. End-to-end figures never come from this run. Both passes run
// a list sized for half the seconds, so a traced run takes about as
// long as an untraced one.
func runTraced(w workload, seed int64, secs int, tracePath string) (result, []string, error) {
	secs = max(1, secs/2)
	b, err := w.setup(seed, secs, nil)
	if err != nil {
		return result{}, nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	plain, err := measure(b, nil)
	if err == nil {
		plain.ok, _, err = b.check()
	}
	b.close()
	if err != nil {
		return result{}, nil, err
	}

	ob := obs.New()
	prev := obs.SetDefault(ob)
	defer obs.SetDefault(prev)
	b, err = w.setup(seed, secs, ob)
	if err != nil {
		return result{}, nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	tr := newTracer()
	before := ob.Snapshot()
	traced, err := measure(b, tr)
	after := ob.Snapshot()
	if err == nil {
		traced.ok, _, err = b.check()
	}
	// The replays need only the generated inputs: stop the daemon and
	// drop its caches first, so their timings see a quiet heap.
	b.close()
	runtime.GC()
	if err != nil {
		return result{}, nil, err
	}
	rep, err := b.replay(tr, ob)
	if err != nil {
		return result{}, nil, err
	}
	final := ob.Snapshot()

	n := len(traced.lat)
	layers := counterLayers(before, after, n)
	for k, v := range rep.layers {
		layers[k] = v
	}
	layers["verify.failures"] = float64(final.Counters["verify.failures_total"] - before.Counters["verify.failures_total"])
	layers["trace.overhead_frac"] = 1 - traced.opsPerSec()/plain.opsPerSec()

	m := map[string]metric{}
	var unused []string
	for _, l := range perLayer {
		v := layers[l.name]
		if v == 0 {
			unused = append(unused, l.name)
		}
		m[l.name] = metric{v, l.unit}
		delete(layers, l.name)
	}
	for k := range layers {
		return result{}, nil, fmt.Errorf("per-layer metric %s is not in the metric list", k)
	}
	if err := tr.write(tracePath); err != nil {
		return result{}, nil, err
	}
	notes := append([]string{
		fmt.Sprintf("workload %s seed %d: %d ops untraced in %.3f s, traced in %.3f s; %d spans in %s",
			w.name, seed, n, plain.wall.Seconds(), traced.wall.Seconds(), len(tr.spans), tracePath),
		fmt.Sprintf("reads 0 (layer not exercised on this workload): %v", unused),
	}, rep.notes...)
	failed := (len(plain.lat) - plain.ok) + (n - traced.ok) + rep.failed
	return result{Correct: failed == 0, Attempted: len(plain.lat) + n, Failed: failed, Metrics: m}, notes, nil
}
