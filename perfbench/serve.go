package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"ladiff"
	"ladiff/internal/client"
	"ladiff/internal/gen"
	"ladiff/internal/route"
	"ladiff/internal/server"
)

// serve-routed exists because its per-request pipeline is cheap: HTTP
// decode and encode, the router hop, admission and the client dominate,
// so a serving change moves it and a matcher change barely does. One
// caller runs a closed loop through internal/client → route.Router → two
// server replicas over loopback. Two callers saturated both CPUs of a
// 2-CPU host and doubled the run-to-run spread of latency and
// throughput, to the size of the bound.

const (
	// The request draw is zipf over the pool with exponent serveZipfS
	// and offset serveZipfV; the offset flattens the head so that no
	// single pair carries a large share of the load.
	serveZipfS = 1.1
	serveZipfV = 8
	serveBlock = 256 // requests per traced or untraced block
	serveSlice = 512 // requests per slice of the measured window
)

type servePair struct {
	format    string
	old, new  string
	unchanged bool
}

// servePool generates n small document pairs. The shape of pair i is
// fixed by i — 1 to 3 sections, LaTeX for i%10 in {0, 3, 6} (30%),
// unchanged for i%4 == 1 (25%) — and the seed picks the content, so the
// zipf head weighs the same shapes under every seed.
func servePool(seed int64, n int) ([]servePair, error) {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]servePair, n)
	for i := range pool {
		p := &pool[i]
		p.format = "text"
		if r := i % 10; r == 0 || r == 3 || r == 6 {
			p.format = "latex"
		}
		old := gen.Document(gen.DocParams{Seed: rng.Int63(), Sections: 1 + i%3,
			MinParagraphs: 2, MaxParagraphs: 3, MinSentences: 2, MaxSentences: 4, Vocabulary: 500})
		p.old = render(p.format, old)
		p.unchanged = i%4 == 1
		if p.unchanged {
			p.new = p.old
			continue
		}
		pert, err := gen.Perturb(old, gen.Mix(rng.Int63(), 2))
		if err != nil {
			return nil, fmt.Errorf("perturbing pool pair %d: %w", i, err)
		}
		p.new = render(p.format, pert.New)
	}
	return pool, nil
}

// serveSequence draws length pool indexes, zipf-distributed.
func serveSequence(seed int64, pool, length int) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	z := rand.NewZipf(rng, serveZipfS, serveZipfV, uint64(pool-1))
	seq := make([]int, length)
	for i := range seq {
		seq[i] = int(z.Uint64())
	}
	return seq
}

// routeHash mirrors the router's shard hash (FNV-64a with a murmur-style
// finalizer) so the benchmark can name each body's ring owner; a drift
// shows as route.owner_share below 1 on a healthy cluster.
func routeHash(b []byte) uint64 {
	f := fnv.New64a()
	f.Write(b)
	h := f.Sum64()
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// serveTracer links the spans that the client transport, the router and
// the replicas record to the op that caused them, through the request's
// X-Request-Id. Its recorder is nil while untraced.
type serveTracer struct {
	rec  atomic.Pointer[recorder]
	ring *route.Ring
	mu   sync.Mutex
	reqs map[string]*reqTrace
	// Totals over traced ops, guarded by mu.
	ops, attempts int
}

// reqTrace is the tracing state of one op's request.
type reqTrace struct {
	tr         *opTrace
	clientSpan int64
	// Guarded by serveTracer.mu: id is the client's request id, which
	// every retry of the request repeats.
	id          string
	routeSpan   int64
	serverSpan  int64
	serverStart int64
	attempts    int
	replica     string // the X-Route-Replica of the last answer
}

type reqKey struct{}

// transport is the client's http.RoundTripper: it passes requests to
// base and, for a traced op, registers the request id and records the
// attempt count and the answering replica.
type transport struct {
	base http.RoundTripper
	st   *serveTracer
}

func (t transport) RoundTrip(req *http.Request) (*http.Response, error) {
	rt, _ := req.Context().Value(reqKey{}).(*reqTrace)
	if rt == nil {
		return t.base.RoundTrip(req)
	}
	t.st.mu.Lock()
	rt.id = req.Header.Get("X-Request-Id")
	t.st.reqs[rt.id] = rt
	rt.attempts++
	t.st.mu.Unlock()
	resp, err := t.base.RoundTrip(req)
	if err == nil {
		t.st.mu.Lock()
		rt.replica = resp.Header.Get("X-Route-Replica")
		t.st.mu.Unlock()
	}
	return resp, err
}

// wrap times next as a span named layer ("route" or "server") of the op
// whose request it serves.
func (st *serveTracer) wrap(layer string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := st.rec.Load()
		if rec == nil {
			next.ServeHTTP(w, r)
			return
		}
		st.mu.Lock()
		rt := st.reqs[r.Header.Get("X-Request-Id")]
		if rt == nil {
			st.mu.Unlock()
			next.ServeHTTP(w, r)
			return
		}
		id := rec.newID()
		start := time.Now()
		parent := rt.clientSpan
		if layer == "server" {
			parent = rt.routeSpan
			rt.serverSpan, rt.serverStart = id, rec.since(start)
		} else {
			rt.routeSpan = id
		}
		st.mu.Unlock()
		next.ServeHTTP(w, r)
		rec.add(span{Op: rt.tr.op, ID: id, Parent: parent, Name: layer, Start: rec.since(start), End: rec.since(time.Now())})
	})
}

// cluster is two default-config replicas behind a default-config router,
// reached through a default-config client whose transport is wrapped.
type cluster struct {
	servers  []*server.Server
	replicas []*httptest.Server
	router   *route.Router
	front    *httptest.Server
	client   *client.Client
	tracer   *serveTracer
}

func startCluster() *cluster {
	c := &cluster{tracer: &serveTracer{reqs: map[string]*reqTrace{}}}
	var urls []string
	for i := 0; i < 2; i++ {
		s := server.New(server.Config{})
		hs := httptest.NewServer(c.tracer.wrap("server", s.Handler()))
		c.servers = append(c.servers, s)
		c.replicas = append(c.replicas, hs)
		urls = append(urls, hs.URL)
	}
	c.router = route.New(route.Config{Replicas: urls})
	c.tracer.ring = route.NewRing(urls, 0)
	c.front = httptest.NewServer(c.tracer.wrap("route", c.router.Handler()))
	c.client = client.New(client.Config{BaseURL: c.front.URL,
		HTTPClient: &http.Client{Transport: transport{base: http.DefaultTransport, st: c.tracer}}})
	return c
}

func (c *cluster) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c.router.BeginDrain()
	_ = c.router.Shutdown(ctx) // drain errors only report a timeout; the servers close below regardless
	c.front.Close()
	for i, s := range c.servers {
		s.BeginDrain()
		_ = s.Shutdown(ctx)
		c.replicas[i].Close()
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// phaseLayer maps the response's phaseMicros keys to layers.
var phaseLayer = map[string]string{"match": "match", "generate": "core", "render": "render"}

// request is the diff request for p.
func (p *servePair) request() client.DiffRequest {
	return client.DiffRequest{Old: p.old, New: p.new, Format: p.format}
}

// op sends one diff request; tr is nil when untraced. A traced op also
// returns the replica that answered.
func (c *cluster) op(p *servePair, tr *opTrace) (*client.DiffResponse, string, error) {
	req := p.request()
	if tr == nil {
		resp, err := c.client.Diff(context.Background(), req)
		return resp, "", err
	}
	rt := &reqTrace{tr: tr, clientSpan: tr.rec.newID()}
	ctx := context.WithValue(context.Background(), reqKey{}, rt)
	var (
		resp *client.DiffResponse
		err  error
	)
	start := time.Now()
	resp, err = c.client.Diff(ctx, req)
	tr.rec.add(span{Op: tr.op, ID: rt.clientSpan, Parent: tr.root, Name: "client",
		Start: tr.rec.since(start), End: tr.rec.since(time.Now())})
	c.tracer.mu.Lock()
	delete(c.tracer.reqs, rt.id)
	serverSpan, serverStart, replica := rt.serverSpan, rt.serverStart, rt.replica
	c.tracer.ops++
	c.tracer.attempts += rt.attempts
	c.tracer.mu.Unlock()
	if err == nil && serverSpan != 0 {
		for phase, us := range resp.Stats.PhaseMicros {
			layer := phaseLayer[phase]
			if phase == "parse" {
				layer = map[string]string{"text": "textdoc", "latex": "latex"}[p.format]
			}
			if layer != "" {
				tr.derived(serverSpan, serverStart, layer, time.Duration(us)*time.Microsecond)
			}
		}
	}
	return resp, replica, err
}

// serveWant is the checked answer for one pool pair.
type serveWant struct {
	ops  int
	cost float64
}

func runServe(cfg config) (*outcome, error) {
	o := newOutcome()
	pool, err := servePool(cfg.seed, cfg.scale.servePool)
	if err != nil {
		return nil, err
	}
	seq := serveSequence(cfg.seed, len(pool), cfg.scale.serveSeq)
	seen := map[int]bool{}
	var repeats, unchanged, latex int
	for _, i := range seq {
		if seen[i] {
			repeats++
		}
		seen[i] = true
		if pool[i].unchanged {
			unchanged++
		}
		if pool[i].format == "latex" {
			latex++
		}
	}
	o.inputs["pool"] = len(pool)
	o.inputs["repeat_share"] = share(repeats, len(seq))
	o.inputs["unchanged_share"] = share(unchanged, len(seq))
	o.inputs["latex_share"] = share(latex, len(seq))

	// Set-up: replicas and router up until the first 200 response.
	var cl *cluster
	setup, err := medianSetup(cfg.scale.setups, func() (time.Duration, func(), error) {
		start := time.Now()
		c := startCluster()
		if _, _, err := c.op(&pool[0], nil); err != nil {
			c.close()
			return 0, nil, fmt.Errorf("first request: %w", err)
		}
		d := time.Since(start)
		cl = c
		return d, c.close, nil
	})
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = setup
	defer func() {
		if cl != nil {
			cl.close()
		}
	}()

	want := serveCheck(cl, pool, o)

	verdict := func(i int, resp *client.DiffResponse, err error) {
		switch {
		case err != nil:
			o.failed++
		case resp.Stats.Ops != want[i].ops || resp.Stats.Cost != want[i].cost:
			o.wrong(fmt.Sprintf("serve-routed pool pair %d: %d ops cost %g, checked %d ops cost %g",
				i, resp.Stats.Ops, resp.Stats.Cost, want[i].ops, want[i].cost))
		}
	}
	if cfg.trace {
		// The router shards a diff on a hash of the body the client
		// sends, which is the request's JSON encoding.
		owner := make([]string, len(pool))
		for i := range pool {
			body, err := json.Marshal(pool[i].request())
			if err != nil {
				return nil, err
			}
			owner[i] = cl.tracer.ring.Owner(fmt.Sprintf("body:%x", routeHash(body)))
		}
		var owned int
		rec := newRecorder()
		snap0 := cl.router.Snapshot()
		req0, rej0 := serverCounts(cl)
		var op int64
		pcts := alternate(cfg.window(), func(pair int, traced bool) (time.Duration, int64) {
			if traced {
				cl.tracer.rec.Store(rec)
			}
			start := time.Now()
			for k := 0; k < serveBlock; k++ {
				i := seq[(pair*serveBlock+k)%len(seq)]
				op++
				var tr *opTrace
				if traced {
					tr = rec.beginOp(op)
				}
				resp, replica, err := cl.op(&pool[i], tr)
				tr.end()
				if traced && replica == owner[i] {
					owned++
				}
				o.attempted++
				verdict(i, resp, err)
			}
			el := time.Since(start)
			cl.tracer.rec.Store(nil)
			return el, serveBlock
		})
		snap := cl.router.Snapshot()
		reqs, rej := serverCounts(cl)
		t := cl.tracer
		// Closing waits for every handler, so every span is recorded
		// before the fold.
		cl.close()
		cl = nil
		o.layer["client.retries"] = float64(t.attempts - t.ops)
		o.layer["route.owner_share"] = share(owned, t.ops)
		overhead(o, pcts)
		lg := fold(rec.spans)
		lg.report(o)
		o.layer["route.failovers"] = float64(snap.Failovers - snap0.Failovers)
		o.layer["route.hedges"] = float64(snap.HedgesLaunched - snap0.HedgesLaunched)
		o.layer["route.balance"] = balance(snap0, snap)
		o.layer["sched.rejected_ratio"] = share(int(rej-rej0), int(reqs-req0))
		if err := writeLedger(cfg, rec.spans, o); err != nil {
			return nil, fmt.Errorf("writing ledger: %w", err)
		}
		return o, nil
	}

	var samples []sample
	meter := startAlloc()
	start := time.Now()
	deadline := start.Add(cfg.window())
	for k := 0; time.Now().Before(deadline); k++ {
		i := seq[k%len(seq)]
		t0 := time.Since(start)
		resp, _, err := cl.op(&pool[i], nil)
		end := time.Since(start)
		samples = append(samples, sample{lat: end - t0, end: end})
		verdict(i, resp, err)
	}
	alloc := meter.stop()
	o.attempted += int64(len(samples))
	o.timedResults(samples, serveSlice, alloc)
	o.e2e["heap_mb"] = liveHeapMiB()
	return o, nil
}

// serverCounts sums the replicas' request and admission-rejection
// counters.
func serverCounts(c *cluster) (requests, rejected int64) {
	for _, s := range c.servers {
		m := s.Metrics()
		requests += m.Requests.Load()
		rejected += m.RejectedQueue.Load() + m.RejectedSize.Load()
	}
	return requests, rejected
}

// balance is the busiest replica's attempts over the mean, between two
// router snapshots.
func balance(a, b route.Snapshot) float64 {
	before := map[string]int64{}
	for _, r := range a.Replicas {
		before[r.URL] = r.Attempts
	}
	var max, sum int64
	for _, r := range b.Replicas {
		d := r.Attempts - before[r.URL]
		sum += d
		if d > max {
			max = d
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) / (float64(sum) / float64(len(b.Replicas)))
}

// serveCheck sends every pool pair once, outside the timed window, and
// applies each returned script to a clone of the benchmark's own parse of
// the old document; the result must be isomorphic to its parse of the new
// one. It records script_cost and the per-pair answers the timed ops are
// compared with.
func serveCheck(c *cluster, pool []servePair, o *outcome) []serveWant {
	want := make([]serveWant, len(pool))
	var matched, smaller, ops int
	for i := range pool {
		o.attempted++
		p := &pool[i]
		resp, _, err := c.op(p, nil)
		if err != nil {
			o.wrong(fmt.Sprintf("serve-routed pool pair %d: %v", i, err))
			continue
		}
		a, errA := parse(p.format, p.old)
		b, errB := parse(p.format, p.new)
		if errA != nil || errB != nil {
			o.wrong(fmt.Sprintf("serve-routed pool pair %d: local parse failed", i))
			continue
		}
		// The server's script is expressed against wrapped roots when
		// the roots went unmatched; a local Diff names the wrapper.
		var wrap ladiff.Label
		if res, err := ladiff.Diff(a, b, ladiff.Options{}); err == nil && res.RootsWrapped {
			wrap = res.Transformed.Root().Label()
		}
		cost := ladiff.UnitCosts().Cost(resp.Script)
		if !applyScript(a, b, resp.Script, wrap) || cost != resp.Stats.Cost {
			o.wrong(fmt.Sprintf("serve-routed pool pair %d: script does not turn old into new", i))
			continue
		}
		want[i] = serveWant{ops: resp.Stats.Ops, cost: resp.Stats.Cost}
		o.e2e["script_cost"] += cost
		matched += resp.Stats.Matched
		smaller += min(resp.Stats.OldNodes, resp.Stats.NewNodes)
		ops += resp.Stats.Ops
	}
	o.layer["match.matched_ratio"] = share(matched, smaller)
	o.layer["core.ops"] = float64(ops)
	return want
}
