package main

import (
	"fmt"
	"math/rand"
	"time"

	"ladiff"
	"ladiff/internal/gen"
)

// lib-corpus exists because textdoc, match and core do almost all of its
// work and no HTTP or store code runs: a change to the engine shows here
// first. Its corpus holds every gen class, so shapes where pruning
// (sparse-1pct), the comparison memo (near-duplicates) or indexed FindPos
// (wide-flat) would pay sit next to shapes where they would not.

type libPair struct {
	class    string
	old, new string
}

// libCorpus generates perClass pairs of every gen class from seed,
// interleaved so each pass over the corpus mixes the classes.
func libCorpus(seed int64, perClass int) ([]libPair, error) {
	rng := rand.New(rand.NewSource(seed))
	var pairs []libPair
	for i := 0; i < perClass; i++ {
		for _, c := range gen.Classes() {
			doc := c.Doc
			doc.Seed = rng.Int63()
			old := gen.Document(doc)
			p, err := gen.Perturb(old, c.Pert(rng.Int63()))
			if err != nil {
				return nil, fmt.Errorf("generating %s: %w", c.Name, err)
			}
			pairs = append(pairs, libPair{class: c.Name, old: render("text", old), new: render("text", p.New)})
		}
	}
	return pairs, nil
}

// libOp is one op with the default pipeline: parse both versions, Diff
// with zero Options, BuildDelta. It returns the script length.
func libOp(p *libPair) (int, error) {
	a, b := ladiff.ParseText(p.old), ladiff.ParseText(p.new)
	res, err := ladiff.Diff(a, b, ladiff.Options{})
	if err != nil {
		return 0, err
	}
	if _, err := ladiff.BuildDelta(res); err != nil {
		return 0, err
	}
	return len(res.Script), nil
}

// libOpTraced is libOp split at the public layer boundaries, each call in
// its own span: Diff with zero Options is FindMatching followed by
// ComputeEditScript, which the output check confirms pair by pair.
func libOpTraced(p *libPair, tr *opTrace) (int, error) {
	var (
		a, b *ladiff.Tree
		m    *ladiff.Matching
		res  *ladiff.Result
		err  error
	)
	tr.do("textdoc.parse", func() { a = ladiff.ParseText(p.old) })
	tr.do("textdoc.parse", func() { b = ladiff.ParseText(p.new) })
	tr.do("match", func() { m, err = ladiff.FindMatching(a, b, ladiff.MatchOptions{}) })
	if err != nil {
		return 0, err
	}
	tr.do("core", func() { res, err = ladiff.ComputeEditScript(a, b, m) })
	if err != nil {
		return 0, err
	}
	tr.do("delta", func() { _, err = ladiff.BuildDelta(res) })
	return len(res.Script), err
}

func runLib(cfg config) (*outcome, error) {
	o := newOutcome()
	pairs, err := libCorpus(cfg.seed, cfg.scale.libPerClass)
	if err != nil {
		return nil, err
	}
	mix := map[string]float64{}
	for _, p := range pairs {
		mix[p.class] += 1 / float64(len(pairs))
	}
	o.inputs["class_mix"] = mix
	o.inputs["pairs"] = len(pairs)

	// Set-up is the first passes over the corpus: the lazy costs a
	// caller pays before steady state (heap growth, first-touch).
	setup, err := medianSetup(cfg.scale.libSetups, func() (time.Duration, func(), error) {
		start := time.Now()
		for i := range pairs {
			if _, err := libOp(&pairs[i]); err != nil {
				return 0, nil, err
			}
		}
		return time.Since(start), nil, nil
	})
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = setup

	want := libCheck(pairs, o)

	if cfg.trace {
		rec := newRecorder()
		var op int64
		pcts := alternate(cfg.window(), func(_ int, traced bool) (time.Duration, int64) {
			start := time.Now()
			for i := range pairs {
				op++
				o.attempted++
				var n int
				var err error
				if traced {
					tr := rec.beginOp(op)
					n, err = libOpTraced(&pairs[i], tr)
					tr.end()
				} else {
					n, err = libOp(&pairs[i])
				}
				libVerdict(o, i, n, err, want)
			}
			return time.Since(start), int64(len(pairs))
		})
		overhead(o, pcts)
		fold(rec.spans).report(o)
		if err := writeLedger(cfg, rec.spans, o); err != nil {
			return nil, fmt.Errorf("writing ledger: %w", err)
		}
		return o, nil
	}

	samples := make([]sample, 0, 1<<14)
	meter := startAlloc()
	start := time.Now()
	deadline := start.Add(cfg.window())
	for i := 0; time.Now().Before(deadline); i = (i + 1) % len(pairs) {
		t0 := time.Now()
		n, err := libOp(&pairs[i])
		end := time.Since(start)
		samples = append(samples, sample{lat: end - t0.Sub(start), end: end})
		libVerdict(o, i, n, err, want)
	}
	alloc := meter.stop()
	o.attempted += int64(len(samples))
	// One slice is one pass over the corpus, so every slice holds the
	// same class mix.
	o.timedResults(samples, len(pairs), alloc)
	o.e2e["heap_mb"] = liveHeapMiB()
	return o, nil
}

// libVerdict counts a timed op's error, or a script whose length differs
// from the checked one, as failed.
func libVerdict(o *outcome, i, n int, err error, want []int) {
	switch {
	case err != nil:
		o.failed++
	case n != want[i]:
		o.wrong(fmt.Sprintf("lib-corpus pair %d: script has %d ops, checked script has %d", i, n, want[i]))
	}
}

// libCheck verifies every distinct pair once, outside the timed window:
// the Diff script and the split FindMatching+ComputeEditScript script both
// replay through Result.ApplyToOld to the new version, and the two agree.
// It records script_cost and the match and core counters, and returns each
// pair's script length.
func libCheck(pairs []libPair, o *outcome) []int {
	want := make([]int, len(pairs))
	var st ladiff.MatchStats
	var work ladiff.WorkStats
	var matched, smaller int
	for i := range pairs {
		o.attempted++
		p := &pairs[i]
		a, b := ladiff.ParseText(p.old), ladiff.ParseText(p.new)
		res, err := ladiff.Diff(a, b, ladiff.Options{})
		if err != nil {
			o.wrong(fmt.Sprintf("lib-corpus pair %d (%s): Diff: %v", i, p.class, err))
			continue
		}
		if _, err := res.ApplyToOld(); err != nil {
			o.wrong(fmt.Sprintf("lib-corpus pair %d (%s): %v", i, p.class, err))
			continue
		}
		if _, err := ladiff.BuildDelta(res); err != nil {
			o.wrong(fmt.Sprintf("lib-corpus pair %d (%s): BuildDelta: %v", i, p.class, err))
			continue
		}
		var ps ladiff.MatchStats
		m, err := ladiff.FindMatching(a, b, ladiff.MatchOptions{Stats: &ps})
		if err != nil {
			o.wrong(fmt.Sprintf("lib-corpus pair %d (%s): FindMatching: %v", i, p.class, err))
			continue
		}
		split, err := ladiff.ComputeEditScript(a, b, m)
		if err != nil {
			o.wrong(fmt.Sprintf("lib-corpus pair %d (%s): ComputeEditScript: %v", i, p.class, err))
			continue
		}
		if _, err := split.ApplyToOld(); err != nil || split.Cost(nil) != res.Cost(nil) {
			o.wrong(fmt.Sprintf("lib-corpus pair %d (%s): split pipeline disagrees with Diff", i, p.class))
			continue
		}
		want[i] = len(res.Script)
		o.e2e["script_cost"] += res.Cost(nil)
		st.Add(ps)
		w := split.Work
		work.Visits += w.Visits
		work.AlignEquals += w.AlignEquals
		work.EffectivePosScans += w.EffectivePosScans
		work.Ops += w.Ops
		matched += m.Len()
		smaller += min(a.Len(), b.Len())
	}
	matchCounters(o, st, matched, smaller)
	coreCounters(o, work)
	return want
}

func matchCounters(o *outcome, st ladiff.MatchStats, matched, smaller int) {
	o.layer["match.leaf_compares"] = float64(st.LeafCompares)
	o.layer["match.partner_checks"] = float64(st.PartnerChecks)
	o.layer["match.effective_compares"] = float64(st.EffectiveLeafCompares + st.EffectivePartnerChecks)
	o.layer["match.memo_hits"] = float64(st.LeafMemoHits + st.InternalMemoHits)
	o.layer["match.pruned_pairs"] = float64(st.PrunedPairs)
	o.layer["match.matched_ratio"] = share(matched, smaller)
}

func coreCounters(o *outcome, w ladiff.WorkStats) {
	o.layer["core.visits"] = float64(w.Visits)
	o.layer["core.align_equals"] = float64(w.AlignEquals)
	o.layer["core.effective_pos_scans"] = float64(w.EffectivePosScans)
	o.layer["core.ops"] = float64(w.Ops)
}
