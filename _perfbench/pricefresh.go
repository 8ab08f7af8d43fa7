package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"minegame/internal/core"
	"minegame/internal/obs"
	"minegame/internal/serve"
	"minegame/internal/verify"
)

// freshMarketsPerSec sizes the price-fresh list: about this many
// markets (a price and a certify request each) complete per second on
// the 2-core host the benchmark was calibrated on.
const freshMarketsPerSec = 5

// freshSample is how many markets of each family a traced price-fresh
// run replays through the library.
const freshSample = 3

// priceFresh is the price-fresh workload: every market is new to the
// daemon, so no request is answered from the result cache.
type priceFresh struct {
	d       *daemon
	seed    int64
	markets []market
	bodies  [][]byte
	// Per op (2i = price, 2i+1 = certify of market i): the response
	// status and body.
	status []int
	resp   [][]byte
	lat    []time.Duration
}

func setupPriceFresh(seed int64, secs int, ob *obs.Observer) (bench, error) {
	// Input generation: blocks of four markets, one exact and three
	// classed, so about a quarter of the requests sit in the slow exact
	// band (the tail) and the median sits in the classed band. Miner
	// counts of exact markets and class counts of classed ones are
	// stratified, so the list's total work barely moves with the seed.
	// The block count is a multiple of four, so each miner count and
	// class count appears equally often. The last block starts with its
	// exact market, so the list ends on short requests and neither
	// client idles long while the other finishes.
	rng := rand.New(rand.NewSource(seed))
	blocks := 4 * max(1, int(math.Round(float64(secs)*freshMarketsPerSec/16)))
	ns := strata(rng, []int{3, 4, 5, 6}, blocks)
	ks := strata(rng, []int{32, 43, 54, 64}, 3*blocks)
	var ws []serve.Market
	for b := 0; b < blocks; b++ {
		slot := rng.Intn(4)
		if b == blocks-1 {
			slot = 0
		}
		for j, c := 0, 0; j < 4; j++ {
			reward := rewardLo + rewardSpan*rng.Float64()
			if j == slot {
				ws = append(ws, exactMarket(rng, ns[b], reward))
				continue
			}
			ws = append(ws, classedMarket(rng, ks[3*b+c], logUniform(rng, 1e5, 1e6), reward))
			c++
		}
	}
	w := &priceFresh{seed: seed}
	var err error
	if w.markets, w.bodies, err = freshInputs(ws); err != nil {
		return nil, err
	}
	if w.d, err = startDaemon(ob); err != nil {
		return nil, err
	}
	// Priming: a fixed, seed-independent set of markets (outside the
	// measured reward band) run through the same closed loop, so
	// connections, goroutines and the heap are warm before timing.
	prng := rand.New(rand.NewSource(1))
	primeWs := []serve.Market{
		exactMarket(prng, 4, rewardPrime),
		classedMarket(prng, 32, 200000, rewardPrime),
		classedMarket(prng, 48, 500000, rewardPrime),
		classedMarket(prng, 64, 800000, rewardPrime),
	}
	_, primeBodies, err := freshInputs(primeWs)
	if err != nil {
		w.close()
		return nil, err
	}
	status, resp, _ := w.drive(primeBodies, nil)
	for i := range status {
		if _, err := itemResults(status[i], resp[i], 1); err != nil {
			w.close()
			return nil, fmt.Errorf("priming request %d: %w", i, err)
		}
	}
	return w, nil
}

// freshInputs converts wire markets and encodes their one-item bodies.
func freshInputs(ws []serve.Market) ([]market, [][]byte, error) {
	ms, err := mustMarkets(ws)
	if err != nil {
		return nil, nil, err
	}
	bodies := make([][]byte, len(ms))
	for i, m := range ms {
		if bodies[i], err = json.Marshal(serve.Request{Items: []serve.Item{{Market: m.wire}}}); err != nil {
			return nil, nil, err
		}
	}
	return ms, bodies, nil
}

// close stops the daemon and drops it, with its caches.
func (w *priceFresh) close() {
	w.d.close()
	w.d = nil
}

// drive runs the closed loop over bodies: each client takes the next
// market, sends /v1/price for it, waits, then sends /v1/certify, so the
// certify request is the only traffic that can read a demand cache an
// earlier request wrote.
func (w *priceFresh) drive(bodies [][]byte, tr *tracer) ([]int, [][]byte, []time.Duration) {
	n := 2 * len(bodies)
	status, resp, lat := make([]int, n), make([][]byte, n), make([]time.Duration, n)
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= len(bodies) {
					return
				}
				for k, ep := range [2]string{"price", "certify"} {
					op := 2*i + k
					start := time.Now()
					st, body, err := w.d.post(ep, bodies[i], &buf)
					end := time.Now()
					lat[op] = end.Sub(start)
					tr.record("serve.request", int64(op), 0, start, end)
					status[op] = st
					if err != nil {
						body = []byte(err.Error())
					}
					resp[op] = append([]byte(nil), body...)
				}
			}
		}()
	}
	wg.Wait()
	return status, resp, lat
}

func (w *priceFresh) run(tr *tracer) ([]time.Duration, error) {
	w.status, w.resp, w.lat = w.drive(w.bodies, tr)
	return w.lat, nil
}

// certifiedAnswer is the /v1/certify two-stage answer.
type certifiedAnswer struct {
	Result      json.RawMessage    `json:"result"`
	Certificate verify.Certificate `json:"certificate"`
}

// check certifies every price answer with internal/verify and requires
// every certify answer to carry a passing certificate for the very
// same result.
func (w *priceFresh) check() (int, []byte, error) {
	var (
		ok      int
		answers []byte
	)
	for i, m := range w.markets {
		priceRes, err := itemResults(w.status[2*i], w.resp[2*i], 1)
		var price []byte
		if err == nil {
			price, err = compact(priceRes[0])
		}
		if err == nil {
			err = certifyAnswer(m, price)
		}
		if err == nil {
			ok++
			answers = append(answers, price...)
		}
		certRes, cerr := itemResults(w.status[2*i+1], w.resp[2*i+1], 1)
		var ca certifiedAnswer
		if cerr == nil {
			cerr = json.Unmarshal(certRes[0], &ca)
		}
		if cerr == nil && !ca.Certificate.OK {
			cerr = ca.Certificate.Err()
		}
		if cerr == nil {
			var res []byte
			if res, cerr = compact(ca.Result); cerr == nil && (err != nil || !bytes.Equal(res, price)) {
				cerr = fmt.Errorf("certified result differs from the price answer")
			}
		}
		if cerr == nil {
			ok++
			answers = append(answers, certRes[0]...)
		}
	}
	return ok, answers, nil
}

// compact returns the JSON with insignificant whitespace removed.
func compact(raw []byte) ([]byte, error) {
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// certifyAnswer decodes a /v1/price answer for m and certifies it:
// converged leader stage, and a passing internal/verify certificate
// (two-stage for exact markets, the classed follower certificate at
// the winning prices for classed ones).
func certifyAnswer(m market, raw []byte) error {
	var cert verify.Certificate
	if m.classed {
		var r core.ClassedStackelbergResult
		if err := json.Unmarshal(raw, &r); err != nil {
			return err
		}
		if !r.Converged || !r.Follower.Converged {
			return fmt.Errorf("classed answer not converged")
		}
		r.Follower.Population = m.cp
		c, err := verify.CertifyClassed(m.cfg, m.cp, r.Prices, r.Follower, verify.Options{})
		if err != nil {
			return err
		}
		cert = c
	} else {
		var r core.StackelbergResult
		if err := json.Unmarshal(raw, &r); err != nil {
			return err
		}
		if !r.Converged || !r.Follower.Converged {
			return fmt.Errorf("answer not converged")
		}
		c, err := verify.CertifyStackelberg(m.cfg, r, verify.Options{})
		if err != nil {
			return err
		}
		cert = c
	}
	return cert.Err()
}

// replay replays a seeded sample of the measured markets and derives
// the serve-layer split from the traced requests.
func (w *priceFresh) replay(tr *tracer, ob *obs.Observer) (replayReport, error) {
	rng := rand.New(rand.NewSource(w.seed + 1))
	var exact, classed []int
	for _, i := range rng.Perm(len(w.markets)) {
		if w.markets[i].classed && len(classed) < freshSample {
			classed = append(classed, i)
		} else if !w.markets[i].classed && len(exact) < freshSample {
			exact = append(exact, i)
		}
	}
	var targets []target
	for _, i := range append(exact, classed...) {
		m := w.markets[i]
		fam := famExact
		if m.classed {
			fam = famClassed
		}
		targets = append(targets, target{fam: fam, cfg: m.cfg, cp: m.cp, req: int64(2 * i)})
	}
	rep, err := replayMarkets(targets, famExact, tr, ob, rng)
	if err != nil {
		return rep, err
	}
	// Library time behind the sampled markets' requests: the price
	// request runs one two-stage solve; the certify request runs it
	// again (the thrashed demand cache makes it cold) plus a certificate.
	var lib, req float64
	for _, t := range targets {
		i := int(t.req / 2)
		solve := spanFor(tr, t.req, solveSpan[t.fam])
		lib += 2*solve + spanFor(tr, t.req, certSpan[t.fam])
		req += w.lat[2*i].Seconds() + w.lat[2*i+1].Seconds()
	}
	rep.layers["serve.overhead_frac"] = 1 - ratio(lib, req)
	rep.layers["serve.miss_request_s"] = median(seconds(w.lat))
	return rep, nil
}

// spanFor returns the duration of the named span of request req.
func spanFor(tr *tracer, req int64, name string) float64 {
	for _, s := range tr.spans {
		if s.Req == req && s.Name == name {
			return s.dur().Seconds()
		}
	}
	return 0
}
