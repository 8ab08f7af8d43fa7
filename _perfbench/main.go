// Command perfbench is minegame's layered benchmark. It runs one seeded
// workload — price-fresh, serve-hot or topo-price — as a fixed list of
// operations, checks every answer, and prints the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run) as one JSON
// object on the last line of standard output. See README.md for the
// workloads, the metric definitions and the layer map.
//
//	bash _perfbench/run.sh --workload price-fresh --seed 1 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"minegame/internal/obs"
)

// setupReps is how many times a run builds its workload from scratch;
// setup_s is the median, and the last build is the one measured.
const setupReps = 5

// buildDir, relative to the checkout root the benchmark runs from,
// holds every file a run writes (run.sh builds into it too).
const buildDir = ".bench_build"

// bench is one workload's system under test, built and primed by its
// setup function.
type bench interface {
	// run executes the timed list to completion and returns each op's
	// latency in list order. A non-nil tracer records a span per op.
	run(tr *tracer) ([]time.Duration, error)
	// check verifies every answer outside the timed window. It returns
	// the number of ops answered correctly and the bytes the answer
	// digest is taken over.
	check() (ok int, answers []byte, err error)
	// replay (traced runs only) times the library calls behind a seeded
	// sample of the workload's markets and returns the workload's own
	// per-layer figures.
	replay(tr *tracer, ob *obs.Observer) (replayReport, error)
	// close stops everything setup started and waits for it.
	close()
}

type workload struct {
	name  string
	setup func(seed int64, seconds int, ob *obs.Observer) (bench, error)
}

var workloads = []workload{
	{"price-fresh", setupPriceFresh},
	{"serve-hot", setupServeHot},
	{"topo-price", setupTopoPrice},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: price-fresh, serve-hot or topo-price")
	seed := fs.Int64("seed", 1, "seed of the generated inputs; the same seed gives the same operation list")
	secs := fs.Int("seconds", 10, "nominal measured time; the operation list is sized to take about this long")
	traced := fs.Int("trace", 0, "0 prints the end-to-end metrics; 1 runs the traced pass and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *secs < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload price-fresh|serve-hot|topo-price, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	var (
		res   result
		notes []string
		err   error
	)
	if *traced == 1 {
		res, notes, err = runTraced(*w, *seed, *secs, filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed)))
	} else {
		res, notes, err = runUntraced(*w, *seed, *secs)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, n := range notes {
		fmt.Fprintln(stdout, "# "+n)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stdout, "%-40s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// setupMedian builds the workload setupReps times and returns the last
// build with the median build time.
func setupMedian(w workload, seed int64, secs int, ob *obs.Observer) (bench, float64, error) {
	var (
		b     bench
		times []float64
	)
	for i := 0; i < setupReps; i++ {
		if b != nil {
			b.close()
		}
		runtime.GC()
		start := time.Now()
		nb, err := w.setup(seed, secs, ob)
		if err != nil {
			return nil, 0, fmt.Errorf("%s setup: %w", w.name, err)
		}
		times = append(times, time.Since(start).Seconds())
		b = nb
	}
	return b, median(times), nil
}

// pass is one execution of the timed list.
type pass struct {
	lat     []time.Duration
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
	heapMiB float64
	ok      int
	answers []byte
}

func (p pass) opsPerSec() float64 {
	return float64(len(p.lat)) / p.wall.Seconds()
}

// measure runs the timed list once. The caller checks the answers
// afterwards, so a traced run can snapshot its counters in between.
func measure(b bench, tr *tracer) (pass, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	start := time.Now()
	lat, err := b.run(tr)
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	if err != nil {
		return pass{}, err
	}
	runtime.ReadMemStats(&after)
	p := pass{lat: lat, wall: wall, cpu: cpu, alloc: after.TotalAlloc - before.TotalAlloc}
	runtime.GC()
	runtime.ReadMemStats(&after)
	p.heapMiB = float64(after.HeapAlloc) / (1 << 20)
	return p, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func runUntraced(w workload, seed int64, secs int) (result, []string, error) {
	b, setupS, err := setupMedian(w, seed, secs, nil)
	if err != nil {
		return result{}, nil, err
	}
	defer b.close()
	p, err := measure(b, nil)
	if err != nil {
		return result{}, nil, err
	}
	checkStart := time.Now()
	if p.ok, p.answers, err = b.check(); err != nil {
		return result{}, nil, err
	}
	checkS := time.Since(checkStart).Seconds()
	n := len(p.lat)
	lat := seconds(p.lat)
	q := tailQuantile(n)
	p50, tail := quantile(lat, 0.5), quantile(lat, q)
	m := map[string]metric{
		"setup_s":            {setupS, "s"},
		"ops_per_s":          {p.opsPerSec(), "1/s"},
		"latency_p50_s":      {p50, "s"},
		"latency_tail_s":     {tail, "s"},
		"ok_frac":            {float64(p.ok) / float64(n), "ratio"},
		"cpu_s_per_op":       {p.cpu.Seconds() / float64(n), "s"},
		"alloc_bytes_per_op": {float64(p.alloc) / float64(n), "B"},
		"live_heap_mib":      {p.heapMiB, "MiB"},
	}
	notes := []string{
		fmt.Sprintf("workload %s seed %d: %d ops in %.3f s wall, GOMAXPROCS %d", w.name, seed, n, p.wall.Seconds(), runtime.GOMAXPROCS(0)),
		fmt.Sprintf("latency_tail_s is p%.1f of %d samples (%d beyond it)", 100*q, n, n-int(math.Ceil(q*float64(n)))),
		fmt.Sprintf("answers checked in %.3f s; answer digest %s (informational)", checkS, digest(p.answers)),
	}
	return result{Correct: p.ok == n, Attempted: n, Failed: n - p.ok, Metrics: m}, notes, nil
}

// digest is a short hex SHA-256 of the answers.
func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}
