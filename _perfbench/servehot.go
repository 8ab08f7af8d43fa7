package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"minegame/internal/core"
	"minegame/internal/game"
	"minegame/internal/obs"
	"minegame/internal/serve"
	"minegame/internal/verify"
)

const (
	// hotRequestsPerSec sizes the serve-hot list: about this many
	// requests complete per second on the 2-core calibration host.
	hotRequestsPerSec = 5000
	// hotBatch is the item count of every serve-hot request.
	hotBatch = 8
	// hotSolveShare is the share of requests that are /v1/solve at
	// fresh prices; the rest are /v1/price repeats.
	hotSolveShare = 0.1
	// hotSample is how many markets of each family, and how many solve
	// requests, a traced serve-hot run replays through the library.
	hotSample      = 2
	hotSolveSample = 16
)

// hotOp is one serve-hot request: a price repeat of the resident
// window starting at window, or a solve of that window at fresh prices.
type hotOp struct {
	solve  bool
	window int
	prices [hotBatch]core.Prices
}

// serveHot is the serve-hot workload: a resident set of markets whose
// prices are already cached, read by 8-item batches, with a trickle of
// fresh fixed-price solves that insert into the result cache's LRU.
type serveHot struct {
	d        *daemon
	seed     int64
	resident []market // in window order
	prefix   [][]byte // item JSON of each resident market minus its closing brace
	windows  [][]byte // price body of each window
	first    [][]byte // each resident market's first answer
	refs     [][]byte // each window's reference price response
	ops      []hotOp

	lat     []time.Duration
	okPrice []bool     // price op answered byte-identically
	hashes  [][32]byte // per op: SHA-256 of the response body
	files   []string   // per client: the solve answers, outside the heap
}

func setupServeHot(seed int64, secs int, ob *obs.Observer) (bench, error) {
	// The resident set is fixed and seed-independent, so the cold-to-warm
	// priming (setup_s) is the same work on every seed; the seed draws
	// only the operation list. The resident order alternates exact and
	// classed markets, and each half holds one of each miner count:
	// every 8-item window carries the same mix, and the two priming
	// requests the same work. Small class counts keep each fresh classed
	// solve as light as an exact one, so the serve layer, not the
	// solver, dominates.
	prng := rand.New(rand.NewSource(1))
	ns := strata(prng, []int{3, 4, 5, 6}, 8)
	ks := strata(prng, []int{8, 10, 12, 14, 16, 18, 20, 22}, 8)
	var ws []serve.Market
	for i := range ns {
		ws = append(ws,
			exactMarket(prng, ns[i], rewardLo+rewardSpan*prng.Float64()),
			classedMarket(prng, ks[i], logUniform(prng, 1e4, 1e5), rewardLo+rewardSpan*prng.Float64()))
	}
	w := &serveHot{seed: seed}
	var err error
	if w.resident, err = mustMarkets(ws); err != nil {
		return nil, err
	}
	for _, m := range w.resident {
		b, err := json.Marshal(serve.Item{Market: m.wire})
		if err != nil {
			return nil, err
		}
		w.prefix = append(w.prefix, b[:len(b)-1])
	}
	for win := range w.resident {
		w.windows = append(w.windows, w.body(nil, win, nil))
	}
	rng := rand.New(rand.NewSource(seed))
	nOps := max(1, int(math.Round(float64(secs)*hotRequestsPerSec)))
	w.ops = make([]hotOp, nOps)
	for i := range w.ops {
		op := &w.ops[i]
		op.solve = rng.Float64() < hotSolveShare
		op.window = rng.Intn(len(w.resident))
		if op.solve {
			for j := range op.prices {
				op.prices[j] = core.Prices{Edge: 3 + 12*rng.Float64(), Cloud: 1 + 3*rng.Float64()}
			}
		}
	}
	if w.d, err = startDaemon(ob); err != nil {
		return nil, err
	}
	if err := w.prime(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// body appends the request body of a window to dst: the cached price
// body when prices is nil, else the window's markets at those prices.
func (w *serveHot) body(dst []byte, win int, prices *[hotBatch]core.Prices) []byte {
	dst = append(dst, `{"items":[`...)
	for j := 0; j < hotBatch; j++ {
		if j > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, w.prefix[(win+j)%len(w.resident)]...)
		if prices != nil {
			dst = append(dst, `,"pe":`...)
			dst = strconv.AppendFloat(dst, prices[j].Edge, 'g', -1, 64)
			dst = append(dst, `,"pc":`...)
			dst = strconv.AppendFloat(dst, prices[j].Cloud, 'g', -1, 64)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}"...)
}

// prime takes the daemon from cold to warm: two concurrent requests
// price the whole resident set, then every window is requested once to
// record the reference answer its repeats must match byte for byte.
func (w *serveHot) prime() error {
	half := len(w.resident) / 2
	var (
		wg   sync.WaitGroup
		errs [2]error
	)
	w.first = make([][]byte, len(w.resident))
	for c, win := range [2]int{0, half} {
		wg.Add(1)
		go func(c, win int) {
			defer wg.Done()
			var buf bytes.Buffer
			st, body, err := w.d.post("price", w.windows[win], &buf)
			if err != nil {
				errs[c] = err
				return
			}
			items, err := itemResults(st, body, hotBatch)
			if err != nil {
				errs[c] = fmt.Errorf("priming window %d: %w", win, err)
				return
			}
			for j, it := range items {
				w.first[win+j] = append([]byte(nil), it...)
			}
		}(c, win)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	var buf bytes.Buffer
	for win := range w.windows {
		st, body, err := w.d.post("price", w.windows[win], &buf)
		if err != nil {
			return err
		}
		if st != http.StatusOK {
			return fmt.Errorf("reference window %d: HTTP %d", win, st)
		}
		w.refs = append(w.refs, append([]byte(nil), body...))
	}
	return nil
}

// close stops the daemon, drops it with its caches, and removes the
// stored solve answers.
func (w *serveHot) close() {
	w.d.close()
	w.d = nil
	for _, f := range w.files {
		os.Remove(f)
	}
}

// run sends the op list from two closed-loop clients. Price answers are
// compared with their window's reference as they arrive; solve answers
// are streamed to a per-client file so that holding them does not
// change the heap being measured.
func (w *serveHot) run(tr *tracer) ([]time.Duration, error) {
	n := len(w.ops)
	w.lat = make([]time.Duration, n)
	w.okPrice = make([]bool, n)
	w.hashes = make([][32]byte, n)
	dir := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		errs [clients]error
	)
	w.files = make([]string, clients)
	for c := 0; c < clients; c++ {
		f, err := os.CreateTemp(dir, "serve-hot-*.bin")
		if err != nil {
			return nil, err
		}
		w.files[c] = f.Name()
		wg.Add(1)
		go func(c int, f *os.File) {
			defer wg.Done()
			out := bufio.NewWriterSize(f, 1<<20)
			var (
				buf  bytes.Buffer
				req  []byte
				head [8]byte
			)
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					break
				}
				op := &w.ops[i]
				endpoint, body := "price", w.windows[op.window]
				if op.solve {
					req = w.body(req[:0], op.window, &op.prices)
					endpoint, body = "solve", req
				}
				start := time.Now()
				st, resp, err := w.d.post(endpoint, body, &buf)
				end := time.Now()
				w.lat[i] = end.Sub(start)
				tr.record("serve.request", int64(i), 0, start, end)
				if err != nil || st != http.StatusOK {
					continue
				}
				w.hashes[i] = sha256.Sum256(resp)
				if !op.solve {
					w.okPrice[i] = bytes.Equal(resp, w.refs[op.window])
					continue
				}
				binary.LittleEndian.PutUint32(head[:4], uint32(i))
				binary.LittleEndian.PutUint32(head[4:], uint32(len(resp)))
				// A bufio.Writer keeps its first write error and returns
				// it from Flush, checked below.
				_, _ = out.Write(head[:])
				_, _ = out.Write(resp)
			}
			if err := out.Flush(); err != nil {
				errs[c] = err
			}
			if err := f.Close(); err != nil && errs[c] == nil {
				errs[c] = err
			}
		}(c, f)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("store solve answers: %w", err)
		}
	}
	return w.lat, nil
}

// check certifies the resident set's first answers, requires every
// reference window to repeat them byte for byte, and certifies every
// item of every solve answer at its fixed prices.
func (w *serveHot) check() (int, []byte, error) {
	firstOK := true
	for k, raw := range w.first {
		if err := certifyAnswer(w.resident[k], raw); err != nil {
			firstOK = false
		}
	}
	refOK := make([]bool, len(w.refs))
	for win, ref := range w.refs {
		items, err := itemResults(http.StatusOK, ref, hotBatch)
		refOK[win] = err == nil && firstOK
		for j := 0; err == nil && j < hotBatch; j++ {
			if !bytes.Equal(items[j], w.first[(win+j)%len(w.resident)]) {
				refOK[win] = false
			}
		}
	}
	ok := 0
	for i, op := range w.ops {
		if !op.solve && w.okPrice[i] && refOK[op.window] {
			ok++
		}
	}
	counts, errs := make([]int, len(w.files)), make([]error, len(w.files))
	var wg sync.WaitGroup
	for c, name := range w.files {
		wg.Add(1)
		go func(c int, name string) {
			defer wg.Done()
			counts[c], errs[c] = w.checkSolves(name)
		}(c, name)
	}
	wg.Wait()
	for c := range w.files {
		if errs[c] != nil {
			return 0, nil, errs[c]
		}
		ok += counts[c]
	}
	var answers []byte
	for _, ref := range w.refs {
		answers = append(answers, ref...)
	}
	for _, h := range w.hashes {
		answers = append(answers, h[:]...)
	}
	return ok, answers, nil
}

// checkSolves reads one client's stored solve answers and counts those
// whose every item converged and certifies.
func (w *serveHot) checkSolves(name string) (int, error) {
	f, err := os.Open(name)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	var (
		head [8]byte
		buf  []byte
		ok   int
	)
	for {
		if _, err := io.ReadFull(r, head[:]); err == io.EOF {
			return ok, nil
		} else if err != nil {
			return 0, err
		}
		i := int(binary.LittleEndian.Uint32(head[:4]))
		size := int(binary.LittleEndian.Uint32(head[4:]))
		if cap(buf) < size {
			buf = make([]byte, size)
		}
		buf = buf[:size]
		if _, err := io.ReadFull(r, buf); err != nil {
			return 0, err
		}
		if i >= len(w.ops) || !w.ops[i].solve || sha256.Sum256(buf) != w.hashes[i] {
			return 0, fmt.Errorf("stored solve answer %d is corrupt", i)
		}
		if w.certifySolve(w.ops[i], buf) == nil {
			ok++
		}
	}
}

// certifySolve certifies each item of one solve answer.
func (w *serveHot) certifySolve(op hotOp, body []byte) error {
	items, err := itemResults(http.StatusOK, body, hotBatch)
	if err != nil {
		return err
	}
	for j, raw := range items {
		m := w.resident[(op.window+j)%len(w.resident)]
		var cert verify.Certificate
		if m.classed {
			var eq core.ClassedEquilibrium
			if err := json.Unmarshal(raw, &eq); err != nil {
				return err
			}
			if !eq.Converged {
				return fmt.Errorf("item %d not converged", j)
			}
			eq.Population = m.cp
			if cert, err = verify.CertifyClassed(m.cfg, m.cp, op.prices[j], eq, verify.Options{}); err != nil {
				return err
			}
		} else {
			var eq core.MinerEquilibrium
			if err := json.Unmarshal(raw, &eq); err != nil {
				return err
			}
			if !eq.Converged {
				return fmt.Errorf("item %d not converged", j)
			}
			if cert, err = verify.Certify(m.cfg, op.prices[j], eq, verify.Options{}); err != nil {
				return err
			}
		}
		if err := cert.Err(); err != nil {
			return err
		}
	}
	return nil
}

// replay replays a sample of the resident markets and of the solve
// requests, and splits the traced request time into hits and misses.
func (w *serveHot) replay(tr *tracer, ob *obs.Observer) (replayReport, error) {
	rng := rand.New(rand.NewSource(w.seed + 1))
	var targets []target
	var nExact, nClassed int
	for _, k := range rng.Perm(len(w.resident)) {
		m := w.resident[k]
		switch {
		case m.classed && nClassed < hotSample:
			nClassed++
			targets = append(targets, target{fam: famClassed, cfg: m.cfg, cp: m.cp, req: int64(-1 - k)})
		case !m.classed && nExact < hotSample:
			nExact++
			targets = append(targets, target{fam: famExact, cfg: m.cfg, req: int64(-1 - k)})
		}
	}
	rep, err := replayMarkets(targets, famExact, tr, ob, rng)
	if err != nil {
		return rep, err
	}
	var hit, miss []float64
	var reqTime float64
	var solves []int
	for i, op := range w.ops {
		reqTime += w.lat[i].Seconds()
		if op.solve {
			miss = append(miss, w.lat[i].Seconds())
			solves = append(solves, i)
		} else {
			hit = append(hit, w.lat[i].Seconds())
		}
	}
	// Library time of a solve request: its eight fixed-price solves,
	// replayed for a seeded sample of the solve requests.
	var lib float64
	sample := min(hotSolveSample, len(solves))
	for _, s := range rng.Perm(len(solves))[:sample] {
		i := solves[s]
		op := w.ops[i]
		for j := 0; j < hotBatch; j++ {
			m := w.resident[(op.window+j)%len(w.resident)]
			start := time.Now()
			if m.classed {
				_, err = core.SolveMinerEquilibriumClassed(m.cfg, m.cp, op.prices[j], game.NEOptions{Observer: ob})
			} else {
				_, err = core.SolveMinerEquilibrium(m.cfg, op.prices[j], game.NEOptions{Observer: ob})
			}
			end := time.Now()
			tr.record("core.fixed_price_solve", int64(i), 0, start, end)
			if err != nil {
				return rep, fmt.Errorf("replay fixed-price solve: %w", err)
			}
			lib += end.Sub(start).Seconds()
		}
	}
	if sample > 0 {
		lib *= float64(len(solves)) / float64(sample)
	}
	rep.layers["core.fixed_price_solve_s"] = median(tr.durations("core.fixed_price_solve"))
	rep.layers["serve.overhead_frac"] = 1 - ratio(lib, reqTime)
	rep.layers["serve.hit_request_s"] = median(hit)
	rep.layers["serve.miss_request_s"] = median(miss)
	return rep, nil
}
