package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"minegame/internal/core"
	"minegame/internal/game"
	"minegame/internal/netmodel"
	"minegame/internal/obs"
	"minegame/internal/verify"
)

// testMarket is a small homogeneous connected market.
func testMarket() Market {
	return Market{N: 5, Budget: 10, Reward: 100, Beta: 0.5, H: 0.9, CE: 1, CC: 0.5}
}

// heteroMarket is a small heterogeneous connected market.
func heteroMarket() Market {
	m := testMarket()
	m.Budget = 0
	m.Budgets = []float64{8, 9, 10, 11, 12}
	return m
}

// classedMarket is a small two-class market.
func classedMarket() Market {
	m := testMarket()
	m.N = 0
	m.Classes = []ClassSpec{{Budget: 9, Count: 3}, {Budget: 11, Count: 3}}
	return m
}

// newTestServer builds a server plus an httptest frontend.
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{Observer: obs.New()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// envelope mirrors the batch response wire shape.
type envelope struct {
	Items []struct {
		Result json.RawMessage `json:"result"`
		Error  string          `json:"error"`
	} `json:"items"`
}

// post sends one request body and returns status plus raw response.
func post(t *testing.T, url, path string, req Request) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp.StatusCode, raw
}

// decodeEnvelope parses a 200 batch response.
func decodeEnvelope(t *testing.T, raw []byte) envelope {
	t.Helper()
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("decode envelope: %v\nbody: %s", err, raw)
	}
	return env
}

// cliBytes re-encodes v the way the CLI does, for byte comparisons.
func cliBytes(t *testing.T, v any) []byte {
	t.Helper()
	b, err := encodeResult(v)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return b
}

// TestSolveMatchesDirectCLIBytes pins the headline byte-identity
// contract: a served item's result, extracted from the envelope and
// terminated with the CLI's trailing newline, is byte-identical to the
// single-shot library solve the CLI would emit.
func TestSolveMatchesDirectCLIBytes(t *testing.T) {
	_, ts := newTestServer(t)
	req := Request{Items: []Item{
		{Market: testMarket(), PriceE: 8, PriceC: 4},
		{Market: heteroMarket(), PriceE: 8, PriceC: 4},
		{Market: classedMarket(), PriceE: 8, PriceC: 4},
	}}
	status, raw := post(t, ts.URL, "/v1/solve", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	env := decodeEnvelope(t, raw)
	if len(env.Items) != 3 {
		t.Fatalf("got %d items, want 3", len(env.Items))
	}
	for i, it := range env.Items {
		if it.Error != "" {
			t.Fatalf("item %d error: %s", i, it.Error)
		}
	}
	prices := core.Prices{Edge: 8, Cloud: 4}
	for i, m := range []Market{testMarket(), heteroMarket()} {
		cfg, _, _, err := m.coreConfig()
		if err != nil {
			t.Fatalf("coreConfig: %v", err)
		}
		eq, err := core.SolveMinerEquilibrium(cfg, prices, game.NEOptions{})
		if err != nil {
			t.Fatalf("direct solve: %v", err)
		}
		want := cliBytes(t, eq)
		got := append(append([]byte(nil), env.Items[i].Result...), '\n')
		if !bytes.Equal(got, want) {
			t.Errorf("item %d: served bytes differ from direct CLI solve\nserved: %s\ndirect: %s", i, got, want)
		}
	}
	cfg, cp, classed, err := classedMarket().coreConfig()
	if err != nil || !classed {
		t.Fatalf("classed coreConfig: classed=%v err=%v", classed, err)
	}
	eq, err := core.SolveMinerEquilibriumClassed(cfg, cp, prices, game.NEOptions{})
	if err != nil {
		t.Fatalf("direct classed solve: %v", err)
	}
	want := cliBytes(t, eq)
	got := append(append([]byte(nil), env.Items[2].Result...), '\n')
	if !bytes.Equal(got, want) {
		t.Errorf("classed item: served bytes differ from direct CLI solve")
	}
}

// TestPriceMatchesDirectSolve pins the same contract for the two-stage
// endpoint: the result cache and batch multiplexing must not change a
// single byte relative to a fresh direct solve.
func TestPriceMatchesDirectSolve(t *testing.T) {
	_, ts := newTestServer(t)
	req := Request{Items: []Item{{Market: testMarket()}}, Workers: 4}
	status, raw := post(t, ts.URL, "/v1/price", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	env := decodeEnvelope(t, raw)
	if env.Items[0].Error != "" {
		t.Fatalf("item error: %s", env.Items[0].Error)
	}
	cfg, _, _, err := testMarket().coreConfig()
	if err != nil {
		t.Fatalf("coreConfig: %v", err)
	}
	res, err := core.SolveStackelberg(cfg, core.StackelbergOptions{Workers: 1})
	if err != nil {
		t.Fatalf("direct solve: %v", err)
	}
	want := cliBytes(t, res)
	got := append(append([]byte(nil), env.Items[0].Result...), '\n')
	if !bytes.Equal(got, want) {
		t.Errorf("served price bytes differ from direct solve\nserved: %s\ndirect: %s", got, want)
	}

	// A warm repeat — now answered from the result cache — returns the
	// same bytes again.
	_, raw2 := post(t, ts.URL, "/v1/price", req)
	if !bytes.Equal(raw, raw2) {
		t.Errorf("warm repeat response differs from cold response")
	}
}

// TestWorkerCountInvariance pins the determinism criterion: identical
// batches answered with different worker budgets and different cache
// temperatures are byte-identical.
func TestWorkerCountInvariance(t *testing.T) {
	req := Request{Items: []Item{
		{Market: testMarket(), PriceE: 8, PriceC: 4},
		{Market: heteroMarket(), PriceE: 8, PriceC: 4},
		{Market: classedMarket(), PriceE: 8, PriceC: 4},
		{Market: testMarket(), PriceE: 6, PriceC: 3},
		{Market: testMarket()},
	}}
	var reference []byte
	for _, workers := range []int{1, 4, 8} {
		_, ts := newTestServer(t) // fresh server: cold caches every time
		req.Workers = workers
		status, raw := post(t, ts.URL, "/v1/solve", Request{Items: req.Items[:4], Workers: workers})
		if status != http.StatusOK {
			t.Fatalf("workers=%d status %d: %s", workers, status, raw)
		}
		if reference == nil {
			reference = raw
		} else if !bytes.Equal(reference, raw) {
			t.Errorf("workers=%d response differs from workers=1 response", workers)
		}
		ts.Close()
	}
}

// TestRaceHammerSingleFlight hammers one server from many goroutines
// with overlapping items on all three endpoints and pins, by counter,
// that the single-flight result cache never ran a duplicate solve —
// price and certify of one market share exactly one two-stage solve —
// and that every response is byte-identical to the sequential
// reference. Run under -race this is also the package's data-race gate.
func TestRaceHammerSingleFlight(t *testing.T) {
	s, ts := newTestServer(t)
	markets := []Market{testMarket(), classedMarket()}
	reqs := map[string]Request{}
	for _, ep := range []string{"solve", "price", "certify"} {
		var items []Item
		for _, m := range markets {
			it := Item{Market: m}
			if ep == "solve" {
				it.PriceE, it.PriceC = 8, 4
			}
			items = append(items, it)
		}
		reqs[ep] = Request{Items: items, Workers: 2}
	}
	// Goroutines alternate the endpoint order, so certify sometimes
	// arrives before, and sometimes joins, the price solve it reuses.
	orders := [][]string{{"solve", "price", "certify"}, {"certify", "solve", "price"}}

	// Sequential references from an independent cold server.
	_, refTS := newTestServer(t)
	want := map[string][]byte{}
	for ep, req := range reqs {
		status, raw := post(t, refTS.URL, "/v1/"+ep, Request{Items: req.Items, Workers: 1})
		if status != http.StatusOK {
			t.Fatalf("%s reference status %d: %s", ep, status, raw)
		}
		want[ep] = raw
	}

	const goroutines = 8
	const repeats = 5
	type response struct {
		ep  string
		raw []byte
	}
	responses := make([]response, goroutines*repeats*len(reqs))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < repeats; r++ {
				for k, ep := range orders[g%len(orders)] {
					body, _ := json.Marshal(reqs[ep])
					resp, err := http.Post(ts.URL+"/v1/"+ep, "application/json", bytes.NewReader(body))
					if err != nil {
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
					raw, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						t.Errorf("goroutine %d: read: %v", g, err)
						return
					}
					responses[(g*repeats+r)*len(reqs)+k] = response{ep: ep, raw: raw}
				}
			}
		}(g)
	}
	wg.Wait()

	for i, r := range responses {
		if !bytes.Equal(r.raw, want[r.ep]) {
			t.Fatalf("response %d (%s) differs from sequential reference\ngot:  %s\nwant: %s", i, r.ep, r.raw, want[r.ep])
		}
	}

	// Single-flight pin: each distinct (endpoint, item) key computed
	// once. Every certify compute adds one inner lookup of the price
	// entry it certifies.
	distinct := int64(len(reqs) * len(markets))
	lookups := int64(goroutines*repeats*len(reqs)*len(markets)) + int64(len(markets))
	hits, misses, _, entries := s.results.stats()
	if misses != distinct {
		t.Errorf("result cache misses = %d, want %d (duplicate solves ran)", misses, distinct)
	}
	if hits != lookups-distinct {
		t.Errorf("result cache hits = %d, want %d", hits, lookups-distinct)
	}
	if entries != int(distinct) {
		t.Errorf("result cache entries = %d, want %d", entries, distinct)
	}
	// Exactly one two-stage solve per distinct market, shared by price
	// and certify.
	snap := s.ob.Snapshot()
	for _, span := range []string{"core.stackelberg.ms", "core.stackelberg_classed.ms"} {
		if n := snap.Histograms[span].Count; n != 1 {
			t.Errorf("%s count = %d, want 1", span, n)
		}
	}
}

// TestCertifyEndpoint exercises both certificate shapes: fixed-price
// follower and full two-stage.
func TestCertifyEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	req := Request{Items: []Item{
		{Market: testMarket(), PriceE: 8, PriceC: 4},
		{Market: testMarket()},
	}}
	status, raw := post(t, ts.URL, "/v1/certify", req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	env := decodeEnvelope(t, raw)
	for i, it := range env.Items {
		if it.Error != "" {
			t.Fatalf("item %d error: %s", i, it.Error)
		}
		if !bytes.Contains(it.Result, []byte(`"certificate"`)) {
			t.Errorf("item %d result carries no certificate: %s", i, it.Result)
		}
	}
	if !bytes.Contains(env.Items[0].Result, []byte(`"equilibrium"`)) {
		t.Errorf("fixed-price certify should wrap an equilibrium")
	}
	if !bytes.Contains(env.Items[1].Result, []byte(`"result"`)) {
		t.Errorf("two-stage certify should wrap a stackelberg result")
	}
}

// itemResult posts a one-item request and returns the item's result
// compacted, failing the test on any error.
func itemResult(t *testing.T, url, path string, it Item) []byte {
	t.Helper()
	status, raw := post(t, url, path, Request{Items: []Item{it}})
	if status != http.StatusOK {
		t.Fatalf("%s status %d: %s", path, status, raw)
	}
	env := decodeEnvelope(t, raw)
	if env.Items[0].Error != "" {
		t.Fatalf("%s item error: %s", path, env.Items[0].Error)
	}
	return compactJSON(t, env.Items[0].Result)
}

// compactJSON strips insignificant whitespace, so a result embedded in
// a certify answer compares byte for byte with the bare answer.
func compactJSON(t *testing.T, raw []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		t.Fatalf("compact: %v\n%s", err, raw)
	}
	return b.Bytes()
}

// certifiedAnswer decodes a certify result into its embedded answer
// (result or equilibrium) and checks the certificate passed.
func certifiedAnswer(t *testing.T, raw []byte) []byte {
	t.Helper()
	var ca struct {
		Result      json.RawMessage    `json:"result"`
		Equilibrium json.RawMessage    `json:"equilibrium"`
		Certificate verify.Certificate `json:"certificate"`
	}
	if err := json.Unmarshal(raw, &ca); err != nil {
		t.Fatalf("decode certify answer: %v", err)
	}
	if !ca.Certificate.OK {
		t.Fatalf("certificate failed: %v", ca.Certificate.Err())
	}
	if ca.Result != nil {
		return compactJSON(t, ca.Result)
	}
	return compactJSON(t, ca.Equilibrium)
}

// TestCertifyReusesPriceSolve pins that a two-stage certify following a
// price of the same market runs no demand probe, and that the result it
// certifies is the price answer and the direct CLI-path solve.
func TestCertifyReusesPriceSolve(t *testing.T) {
	for _, m := range []Market{heteroMarket(), classedMarket()} {
		s, ts := newTestServer(t)
		probes := s.ob.Counter("core.demand_probes_total")
		price := itemResult(t, ts.URL, "/v1/price", Item{Market: m})
		before := probes.Value()
		if before == 0 {
			t.Fatal("price ran no demand probes; the counter pin would be vacuous")
		}
		cert := itemResult(t, ts.URL, "/v1/certify", Item{Market: m})
		if after := probes.Value(); after != before {
			t.Errorf("certify ran %d demand probes, want 0", after-before)
		}
		if got := certifiedAnswer(t, cert); !bytes.Equal(got, price) {
			t.Errorf("certified result differs from the price answer\ncertified: %s\nprice:     %s", got, price)
		}

		cfg, cp, classed, err := m.coreConfig()
		if err != nil {
			t.Fatalf("coreConfig: %v", err)
		}
		var direct any
		if classed {
			direct, err = core.SolveStackelbergClassed(cfg, cp, core.StackelbergOptions{Workers: 1})
		} else {
			direct, err = core.SolveStackelberg(cfg, core.StackelbergOptions{Workers: 1})
		}
		if err != nil {
			t.Fatalf("direct solve: %v", err)
		}
		if want := compactJSON(t, cliBytes(t, direct)); !bytes.Equal(price, want) {
			t.Errorf("price answer differs from the direct CLI-path solve\nserved: %s\ndirect: %s", price, want)
		}
	}
}

// TestPriceAfterCertifyHitsCache pins the other order: a certify leaves
// the price answer cached, so the price that follows is a result-cache
// hit with the cold answer's bytes.
func TestPriceAfterCertifyHitsCache(t *testing.T) {
	s, ts := newTestServer(t)
	it := Item{Market: testMarket()}
	cert := itemResult(t, ts.URL, "/v1/certify", it)
	hits0, misses0, _, _ := s.results.stats()
	price := itemResult(t, ts.URL, "/v1/price", it)
	hits, misses, _, _ := s.results.stats()
	if hits-hits0 != 1 || misses != misses0 {
		t.Errorf("price after certify: hits +%d misses +%d, want +1 +0", hits-hits0, misses-misses0)
	}
	if got := certifiedAnswer(t, cert); !bytes.Equal(got, price) {
		t.Errorf("price answer differs from the certified result")
	}
	_, coldTS := newTestServer(t)
	if cold := itemResult(t, coldTS.URL, "/v1/price", it); !bytes.Equal(price, cold) {
		t.Errorf("cached price answer differs from a cold server's")
	}
}

// TestFixedPriceCertifyReusesSolve pins that a fixed-price certify
// certifies the cached /v1/solve answer of the same item.
func TestFixedPriceCertifyReusesSolve(t *testing.T) {
	for _, m := range []Market{heteroMarket(), classedMarket()} {
		s, ts := newTestServer(t)
		it := Item{Market: m, PriceE: 8, PriceC: 4}
		solved := itemResult(t, ts.URL, "/v1/solve", it)
		hits0, misses0, _, _ := s.results.stats()
		cert := itemResult(t, ts.URL, "/v1/certify", it)
		hits, misses, _, _ := s.results.stats()
		// One miss for the certify entry, one hit on the solve entry.
		if hits-hits0 != 1 || misses-misses0 != 1 {
			t.Errorf("certify after solve: hits +%d misses +%d, want +1 +1", hits-hits0, misses-misses0)
		}
		if got := certifiedAnswer(t, cert); !bytes.Equal(got, solved) {
			t.Errorf("certified equilibrium differs from the solve answer")
		}
	}
}

// TestDistinctItemsNeverShareEntries pins the result-cache key: items
// that differ in any market field or endpoint get their own entry, and
// identical items share one.
func TestDistinctItemsNeverShareEntries(t *testing.T) {
	s, ts := newTestServer(t)
	m2 := testMarket()
	m2.Reward = 101
	a := itemResult(t, ts.URL, "/v1/price", Item{Market: testMarket()})
	b := itemResult(t, ts.URL, "/v1/price", Item{Market: m2})
	if bytes.Equal(a, b) {
		t.Error("distinct markets got the same answer")
	}
	if _, misses, _, entries := s.results.stats(); misses != 2 || entries != 2 {
		t.Errorf("two distinct markets: misses %d entries %d, want 2 2", misses, entries)
	}
	if again := itemResult(t, ts.URL, "/v1/price", Item{Market: testMarket()}); !bytes.Equal(again, a) {
		t.Error("identical market answered differently")
	}
	if hits, misses, _, _ := s.results.stats(); hits != 1 || misses != 2 {
		t.Errorf("identical repeat: hits %d misses %d, want 1 2", hits, misses)
	}
	for _, ep := range []string{"solve", "certify"} {
		k1, err := itemKey("price", Item{Market: testMarket()})
		if err != nil {
			t.Fatal(err)
		}
		k2, err := itemKey(ep, Item{Market: testMarket()})
		if err != nil {
			t.Fatal(err)
		}
		if k1 == k2 {
			t.Errorf("price and %s share a key", ep)
		}
	}
}

// TestCanceledCertifyCachesNothing cancels a certify while its inner
// price solve is probing and pins that neither the certify nor the
// price entry is cached, and that a later certify computes both.
func TestCanceledCertifyCachesNothing(t *testing.T) {
	s, _ := newTestServer(t)
	it := Item{Market: heteroMarket()}
	probes := s.ob.Counter("core.demand_probes_total")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := make(chan struct{})
	canceled := make(chan struct{})
	go func() {
		defer close(canceled)
		for probes.Value() == 0 {
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
		cancel()
	}()
	_, _, err := s.resolve(ctx, "certify", it)
	close(stop)
	<-canceled
	if !notCacheable(err) {
		t.Fatalf("canceled certify returned %v, want a cancellation", err)
	}
	if _, _, _, entries := s.results.stats(); entries != 0 {
		t.Fatalf("canceled certify left %d entries cached, want 0", entries)
	}
	if _, _, err := s.resolve(context.Background(), "certify", it); err != nil {
		t.Fatalf("certify after cancellation: %v", err)
	}
	if _, misses, _, entries := s.results.stats(); entries != 2 || misses != 4 {
		t.Errorf("after a live certify: entries %d misses %d, want 2 4", entries, misses)
	}
}

// TestUnconvergedIsItemError pins the convergence gate: a result whose
// leader or follower stage did not converge is an error, cached like
// any other deterministic failure, and converged results pass.
func TestUnconvergedIsItemError(t *testing.T) {
	conv := core.MinerEquilibrium{Converged: true}
	classedConv := core.ClassedEquilibrium{Converged: true}
	cases := []struct {
		name string
		v    any
		want string
	}{
		{"solve", core.MinerEquilibrium{}, "follower"},
		{"solve converged", conv, ""},
		{"classed solve", core.ClassedEquilibrium{}, "follower"},
		{"classed solve converged", classedConv, ""},
		{"price leader", core.StackelbergResult{Follower: conv}, "leader"},
		{"price follower", core.StackelbergResult{Converged: true}, "follower"},
		{"price converged", core.StackelbergResult{Converged: true, Follower: conv}, ""},
		{"classed price leader", core.ClassedStackelbergResult{Follower: classedConv}, "leader"},
		{"classed price follower", core.ClassedStackelbergResult{Converged: true}, "follower"},
		{"classed price converged", core.ClassedStackelbergResult{Converged: true, Follower: classedConv}, ""},
	}
	for _, c := range cases {
		err := unconverged(c.v)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want one naming the %s stage", c.name, err, c.want)
		}
	}

	rc := newResultCache(0, obs.New())
	calls := 0
	for i := 0; i < 2; i++ {
		_, raw, err := rc.do("k", func() (any, error) {
			calls++
			v := core.StackelbergResult{Converged: true}
			return v, unconverged(v)
		})
		if err == nil || raw != nil {
			t.Fatalf("unconverged result served: raw %q err %v", raw, err)
		}
	}
	if calls != 1 {
		t.Errorf("unconverged failure computed %d times, want 1 (cached)", calls)
	}
}

// TestRequestValidation exercises the request-level error surface.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t)

	resp, err := http.Get(ts.URL + "/v1/solve")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", resp.StatusCode)
	}

	status, _ := post(t, ts.URL, "/v1/solve", Request{})
	if status != http.StatusBadRequest {
		t.Errorf("empty batch status = %d, want 400", status)
	}

	// Item-level failures land in the envelope, not the status code.
	status, raw := post(t, ts.URL, "/v1/solve", Request{Items: []Item{
		{Market: testMarket()}, // no prices on /v1/solve
		{Market: Market{N: 3, Reward: 100, Beta: 0.5, H: 0.9, CE: 1, CC: 0.5, Mode: "weird"}, PriceE: 8, PriceC: 4}, // bad mode
		{Market: testMarket(), PriceE: 8, PriceC: 4},                                                                // fine
	}})
	if status != http.StatusOK {
		t.Fatalf("mixed batch status = %d, want 200", status)
	}
	env := decodeEnvelope(t, raw)
	if !strings.Contains(env.Items[0].Error, "fixed prices") {
		t.Errorf("priceless solve error = %q, want fixed-prices hint", env.Items[0].Error)
	}
	if !strings.Contains(env.Items[1].Error, "unknown mode") {
		t.Errorf("bad mode error = %q, want unknown-mode", env.Items[1].Error)
	}
	if env.Items[2].Error != "" || len(env.Items[2].Result) == 0 {
		t.Errorf("valid item failed: %q", env.Items[2].Error)
	}
}

// TestBatchCap pins the MaxBatch guard.
func TestBatchCap(t *testing.T) {
	s, err := New(Config{Observer: obs.New(), MaxBatch: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	items := []Item{
		{Market: testMarket(), PriceE: 8, PriceC: 4},
		{Market: testMarket(), PriceE: 7, PriceC: 4},
		{Market: testMarket(), PriceE: 6, PriceC: 4},
	}
	status, _ := post(t, ts.URL, "/v1/solve", Request{Items: items})
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch status = %d, want 413", status)
	}
}

// TestDrainFlipsReadiness runs the full lifecycle: Run serves, the
// context cancels, readiness flips to 503 during the drain grace while
// the telemetry surface still answers, and Run returns cleanly.
func TestDrainFlipsReadiness(t *testing.T) {
	addrCh := make(chan string, 1)
	s, err := New(Config{
		Addr:       "127.0.0.1:0",
		Observer:   obs.New(),
		DrainGrace: 500 * time.Millisecond,
		OnListen:   func(addr string) { addrCh <- addr },
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx) }()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(5 * time.Second):
		t.Fatal("server never listened")
	}
	base := "http://" + addr

	get := func(path string) int {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz before drain = %d, want 200", code)
	}

	cancel()
	deadline := time.Now().Add(2 * time.Second)
	flipped := false
	for time.Now().Before(deadline) {
		if get("/readyz") == http.StatusServiceUnavailable {
			flipped = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !flipped {
		t.Fatal("/readyz never flipped to 503 during drain")
	}
	// Mid-drain the daemon still answers its telemetry surface.
	if code := get("/metrics"); code != http.StatusOK {
		t.Errorf("/metrics during drain = %d, want 200", code)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run never returned after drain")
	}
}

// TestModeRoundTrip pins the wire-to-core mode mapping.
func TestModeRoundTrip(t *testing.T) {
	m := testMarket()
	cfg, _, _, err := m.coreConfig()
	if err != nil || cfg.Mode != netmodel.Connected {
		t.Fatalf("default mode: %v mode=%v", err, cfg.Mode)
	}
	m.Mode = "standalone"
	m.EMax = 30
	cfg, _, _, err = m.coreConfig()
	if err != nil || cfg.Mode != netmodel.Standalone {
		t.Fatalf("standalone mode: %v mode=%v", err, cfg.Mode)
	}
}

// TestEnvelopeShape pins the hand-assembled envelope against the
// stdlib decoder and the item ordering.
func TestEnvelopeShape(t *testing.T) {
	rec := httptest.NewRecorder()
	writeEnvelope(rec, []outcome{
		{raw: []byte("{\n  \"x\": 1\n}\n")},
		{err: fmt.Errorf("boom \"quoted\"")},
	})
	var env envelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("envelope is not valid JSON: %v\n%s", err, rec.Body.Bytes())
	}
	if len(env.Items) != 2 {
		t.Fatalf("items = %d, want 2", len(env.Items))
	}
	got := append(append([]byte(nil), env.Items[0].Result...), '\n')
	if string(got) != "{\n  \"x\": 1\n}\n" {
		t.Errorf("raw bytes not preserved: %q", got)
	}
	if env.Items[1].Error != "boom \"quoted\"" {
		t.Errorf("error round-trip: %q", env.Items[1].Error)
	}
}
