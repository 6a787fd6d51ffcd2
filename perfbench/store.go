package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"ladiff"
	"ladiff/internal/gen"
	"ladiff/internal/store"
)

// store-history exists because it is the only workload that writes beside
// reading and keeps an on-disk log. Ingest runs match and core while
// checkout and compose run neither, so a store change (log format, fsync,
// compaction) and a matcher change land on different metrics. One caller
// cycles ingest → checkout → compose over several keys.

const (
	storeNoop   = 0.2 // share of ingests that re-send the head unchanged
	storeEdits  = 4   // perturbation operations between versions
	storeRefill = 64  // chain steps generated per key when one runs dry
	storeBlock  = 150 // ops per traced or untraced block
	storeSlice  = 300 // ops per slice of the measured window
)

// storeDoc is the set-B (medium) document shape.
var storeDoc = gen.DocParams{Sections: 8, MinParagraphs: 4, MaxParagraphs: 7,
	MinSentences: 5, MaxSentences: 9, Vocabulary: 4000}

// chain generates one key's versions: each step is a lightly perturbed
// copy of the last, or, with probability storeNoop, the last one again.
type chain struct {
	rng  *rand.Rand
	cur  *ladiff.Tree
	text string
	step int
}

func newChain(seed int64, key int) *chain {
	rng := rand.New(rand.NewSource(seed*1000 + int64(key)))
	doc := storeDoc
	doc.Seed = rng.Int63()
	return &chain{rng: rng, cur: gen.Document(doc)}
}

// next returns the text of the next step and whether it repeats the
// previous one.
func (c *chain) next() (string, bool, error) {
	c.step++
	if c.step == 1 {
		c.text = render("text", c.cur)
		return c.text, false, nil
	}
	if c.rng.Float64() < storeNoop {
		return c.text, true, nil
	}
	p, err := gen.Perturb(c.cur, gen.Mix(c.rng.Int63(), storeEdits))
	if err != nil {
		return "", false, err
	}
	c.cur, c.text = p.New, render("text", p.New)
	return c.text, false, nil
}

type ingestStep struct {
	text string
	noop bool
}

// storeKey is the benchmark's view of one key: its pending steps and the
// chain step that produced each stored version.
type storeKey struct {
	name    string
	chain   *chain
	pending []ingestStep
	// head is the text of the newest stored version.
	head string
	// versionStep[v-1] is the chain step (1-based) of version v.
	versionStep []int
	ingests     int
	noops       int
}

func (k *storeKey) refill() error {
	for i := 0; i < storeRefill; i++ {
		text, noop, err := k.chain.next()
		if err != nil {
			return fmt.Errorf("generating %s: %w", k.name, err)
		}
		k.pending = append(k.pending, ingestStep{text, noop})
	}
	return nil
}

// ingest sends k's next pending step; the caller refills first.
func (k *storeKey) ingest(s *store.Store) (store.IngestResult, ingestStep, error) {
	st := k.pending[0]
	k.pending = k.pending[1:]
	step := k.chain.step - len(k.pending)
	res, err := s.Ingest(context.Background(), k.name, "text", st.text)
	if err != nil {
		return res, st, err
	}
	k.ingests++
	if res.Noop {
		k.noops++
	} else {
		k.versionStep = append(k.versionStep, step)
		k.head = st.text
	}
	return res, st, nil
}

const (
	kindIngest = iota
	kindCheckout
	kindCompose
)

var kindSpan = [...]string{"store.ingest", "store.checkout", "store.compose"}

func runStore(cfg config) (*outcome, error) {
	o := newOutcome()
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "store-history-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	logPath := filepath.Join(dir, "history.log")

	keys := make([]*storeKey, cfg.scale.storeKeys)
	for i := range keys {
		keys[i] = &storeKey{name: fmt.Sprintf("doc-%d", i), chain: newChain(cfg.seed, i)}
		if err := keys[i].refill(); err != nil {
			return nil, err
		}
	}

	// The history log, written before set-up: storeHistory versions per
	// key (no-op steps on the way add none).
	s, err := store.Open(logPath, store.Config{})
	if err != nil {
		return nil, err
	}
	for _, k := range keys {
		for len(k.versionStep) < cfg.scale.storeHistory {
			if len(k.pending) == 0 {
				if err := k.refill(); err != nil {
					s.Close()
					return nil, err
				}
			}
			if _, _, err := k.ingest(s); err != nil {
				s.Close()
				return nil, fmt.Errorf("writing history: %w", err)
			}
		}
	}
	if err := s.Close(); err != nil {
		return nil, err
	}
	historyVersions := make([]int, len(keys))
	for i, k := range keys {
		historyVersions[i] = len(k.versionStep)
	}

	// Set-up: Open replays the history log.
	setup, err := medianSetup(cfg.scale.setups, func() (time.Duration, func(), error) {
		start := time.Now()
		st, err := store.Open(logPath, store.Config{})
		if err != nil {
			return 0, nil, err
		}
		d := time.Since(start)
		s = st
		return d, func() { st.Close() }, nil
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	o.e2e["setup_s"] = setup
	// Live heap is taken here, with the history replayed: after the
	// window it would grow with the versions a faster store fits in.
	o.e2e["heap_mb"] = liveHeapMiB()
	o.layer["store.replay_ms"] = setup * 1000

	rng := rand.New(rand.NewSource(cfg.seed ^ 0x570e))
	var (
		lats   [3][]time.Duration
		active time.Duration
		cycle  int
	)
	// op runs the next op of the ingest → checkout → compose cycle and
	// returns its kind and latency. The clock and, on a non-nil rec, the
	// op's root span start after any refill (input generation) of the
	// key's chain; a traced ingest's shadow runs after the root span ends.
	op := func(rec *recorder, id int64) (int, time.Duration, error) {
		kind := cycle % 3
		k := keys[(cycle/3)%len(keys)]
		cycle++
		if kind == kindIngest && len(k.pending) == 0 {
			if err := k.refill(); err != nil {
				return kind, 0, err
			}
		}
		prevHead := k.head
		var from, to int
		if n := len(k.versionStep); kind != kindIngest {
			from, to = 1+rng.Intn(n), 1+rng.Intn(n)
		}
		var (
			err  error
			st   ingestStep
			noop bool
		)
		tr := rec.beginOp(id)
		start := time.Now()
		sp := tr.do(kindSpan[kind], func() {
			switch kind {
			case kindIngest:
				var res store.IngestResult
				res, st, err = k.ingest(s)
				noop = res.Noop
			case kindCheckout:
				_, _, err = s.Checkout(context.Background(), k.name, from)
			case kindCompose:
				_, _, err = s.ComposeDiff(k.name, from, to)
			}
		})
		d := time.Since(start)
		tr.end()
		if tr != nil && kind == kindIngest && err == nil {
			shadowIngest(tr, sp, prevHead, st.text, noop)
		}
		return kind, d, err
	}

	if cfg.trace {
		rec := newRecorder()
		stats0 := s.Stats()
		var opID int64
		pcts := alternate(cfg.window(), func(_ int, traced bool) (time.Duration, int64) {
			var el time.Duration
			for i := 0; i < storeBlock; i++ {
				opID++
				var r *recorder
				if traced {
					r = rec
				}
				kind, d, err := op(r, opID)
				o.attempted++
				if err != nil {
					o.failed++
				}
				el += d
				if !traced {
					lats[kind] = append(lats[kind], d)
				}
			}
			return el, storeBlock
		})
		overhead(o, pcts)
		lg := fold(rec.spans)
		lg.report(o)
		o.layer["store.self_ms_p50"] = quantile(lg.selfByName["store.ingest"], 0.5)
		o.layer["store.ingest_ms_p50"] = msQuantile(lats[kindIngest], 0.5)
		o.layer["store.ingest_ms_p90"] = msQuantile(lats[kindIngest], 0.9)
		o.layer["store.checkout_ms_p50"] = msQuantile(lats[kindCheckout], 0.5)
		o.layer["store.checkout_ms_p90"] = msQuantile(lats[kindCheckout], 0.9)
		o.layer["store.compose_ms_p50"] = msQuantile(lats[kindCompose], 0.5)
		stats := s.Stats()
		if n := stats.CheckoutsTotal - stats0.CheckoutsTotal; n > 0 {
			o.layer["store.checkout_replays"] = float64(stats.CheckoutReplayOps-stats0.CheckoutReplayOps) / float64(n)
		}
		if fi, err := os.Stat(logPath); err == nil && stats.VersionsTotal > 0 {
			o.layer["store.log_bytes_per_version"] = float64(fi.Size()) / float64(stats.VersionsTotal)
		}
		if err := shadowCounters(cfg.seed, keys, historyVersions, o); err != nil {
			return nil, err
		}
		if err := writeLedger(cfg, rec.spans, o); err != nil {
			return nil, fmt.Errorf("writing ledger: %w", err)
		}
	} else {
		meter := startAlloc()
		var samples []sample
		for active < cfg.window() {
			_, d, err := op(nil, 0)
			if err != nil {
				o.failed++
			}
			active += d
			samples = append(samples, sample{lat: d, end: active})
		}
		alloc := meter.stop()
		o.attempted += int64(len(samples))
		o.timedResults(samples, storeSlice, alloc)
	}

	var ingests, noops int
	for _, k := range keys {
		ingests += k.ingests
		noops += k.noops
	}
	o.inputs["noop_ingest_share"] = share(noops, ingests)
	o.layer["store.noop_share"] = share(noops, ingests)
	o.inputs["keys"] = len(keys)
	o.inputs["history_versions_per_key"] = cfg.scale.storeHistory
	return o, storeCheck(cfg.seed, s, keys, historyVersions, o)
}

// shadowIngest times, outside the ingest's span, a parse and default
// Diff of the same pair and adds them as derived children of the ingest
// span, so the ledger can split an ingest into textdoc, match, core and
// the store's own time. A no-op ingest only parses.
func shadowIngest(tr *opTrace, ingest span, prev, next string, noop bool) {
	t0 := time.Now()
	b := ladiff.ParseText(next)
	tr.derived(ingest.ID, ingest.Start, "textdoc.parse", time.Since(t0))
	if noop {
		return
	}
	a := ladiff.ParseText(prev)
	t0 = time.Now()
	m, err := ladiff.FindMatching(a, b, ladiff.MatchOptions{})
	tr.derived(ingest.ID, ingest.Start, "match", time.Since(t0))
	if err != nil {
		return
	}
	t0 = time.Now()
	_, _ = ladiff.ComputeEditScript(a, b, m) // the store's own ingest already verified this pair
	tr.derived(ingest.ID, ingest.Start, "core", time.Since(t0))
}

// shadowCounters runs FindMatching and ComputeEditScript over every
// history version pair, the fixed set behind script_cost, for the match
// and core counters.
func shadowCounters(seed int64, keys []*storeKey, history []int, o *outcome) error {
	var st ladiff.MatchStats
	var work ladiff.WorkStats
	var matched, smaller int
	for i, k := range keys {
		texts, err := versionTexts(seed, i, k.versionStep[:history[i]])
		if err != nil {
			return err
		}
		for v := 1; v < len(texts); v++ {
			a, b := ladiff.ParseText(texts[v-1]), ladiff.ParseText(texts[v])
			var ps ladiff.MatchStats
			m, err := ladiff.FindMatching(a, b, ladiff.MatchOptions{Stats: &ps})
			if err != nil {
				return err
			}
			res, err := ladiff.ComputeEditScript(a, b, m)
			if err != nil {
				return err
			}
			st.Add(ps)
			work.Visits += res.Work.Visits
			work.AlignEquals += res.Work.AlignEquals
			work.EffectivePosScans += res.Work.EffectivePosScans
			work.Ops += res.Work.Ops
			matched += m.Len()
			smaller += min(a.Len(), b.Len())
		}
	}
	matchCounters(o, st, matched, smaller)
	coreCounters(o, work)
	return nil
}

// versionTexts regenerates key i's chain and returns the text of each
// listed step.
func versionTexts(seed int64, i int, steps []int) ([]string, error) {
	c := newChain(seed, i)
	texts := make([]string, 0, len(steps))
	for _, want := range steps {
		for c.step < want {
			if _, _, err := c.next(); err != nil {
				return nil, err
			}
		}
		texts = append(texts, c.text)
	}
	return texts, nil
}

// storeCheck verifies every stored version once, after the measured
// window: its checkout must be isomorphic to the benchmark's parse of the
// text it ingested, and the ingest's forward script (ComposeDiff of v-1
// → v) must turn a clone of version v-1 into it. It also records
// script_cost over the history versions.
func storeCheck(seed int64, s *store.Store, keys []*storeKey, history []int, o *outcome) error {
	for i, k := range keys {
		texts, err := versionTexts(seed, i, k.versionStep)
		if err != nil {
			return err
		}
		var prev *ladiff.Tree
		for v := 1; v <= len(texts); v++ {
			o.attempted++
			want := ladiff.ParseText(texts[v-1])
			got, _, err := s.Checkout(context.Background(), k.name, v)
			if err != nil || !ladiff.Isomorphic(got, want) {
				o.wrong(fmt.Sprintf("store-history %s version %d: checkout differs from the ingested document (%v)", k.name, v, err))
				prev = nil
				continue
			}
			if prev != nil {
				script, ok, err := s.ComposeDiff(k.name, v-1, v)
				switch {
				case err != nil:
					o.wrong(fmt.Sprintf("store-history %s %d→%d: %v", k.name, v-1, v, err))
				case ok && !applyScript(prev, want, script, ""):
					o.wrong(fmt.Sprintf("store-history %s %d→%d: ingest script does not reproduce the version", k.name, v-1, v))
				case ok && v <= history[i]:
					o.e2e["script_cost"] += ladiff.UnitCosts().Cost(script)
				}
			}
			prev = got
		}
	}
	return nil
}
