// Matching-engine performance evidence: the before/after record behind
// the BENCH_matching.json artifact. The "after" run is measured live on
// the current engine; the "before" run is the recorded seed-engine
// measurement (ancestor-climb common(), no index), kept here because the
// seed code no longer exists in the tree to be re-run.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"ladiff/internal/gen"
	"ladiff/internal/match"
	"ladiff/internal/tree"
)

// MatchingPerfRun is one measured (or recorded) run of the FastMatch
// stage benchmark on the medium document pair.
type MatchingPerfRun struct {
	Name   string `json:"name"`
	Config string `json:"config"`
	// NsPerOp is the median wall-clock of one FastMatch call.
	NsPerOp int64 `json:"ns_per_op"`
	// Pairs is the size of the returned matching.
	Pairs int `json:"pairs"`
	// R1/R2/Total are the Figure 13(b) counters.
	R1    int64  `json:"r1_leaf_compares"`
	R2    int64  `json:"r2_partner_checks"`
	Total int64  `json:"total_compares"`
	Notes string `json:"notes,omitempty"`
}

// MatchingPerfReport is the full BENCH_matching.json payload.
type MatchingPerfReport struct {
	Benchmark  string          `json:"benchmark"`
	Pair       string          `json:"pair"`
	GoMaxProcs int             `json:"gomaxprocs"`
	Before     MatchingPerfRun `json:"before"`
	After      MatchingPerfRun `json:"after"`
	SpeedupX   float64         `json:"speedup_x"`
}

// SeedMatchingBaseline is the pre-change measurement of
// BenchmarkStageFastMatch on the seed engine (commit e76c52c): per-leaf
// ancestor climbs in common(), full word-LCS on every compare, no token
// cache, no memo, sequential. ns/op is machine-dependent; the counter
// values are exact. r2 differs from the current engine because the seed
// charged one check per ancestor-climb step where the current cost model
// charges one partner lookup plus one containment test per matched leaf.
var SeedMatchingBaseline = MatchingPerfRun{
	Name:    "seed",
	Config:  "pre-index engine: ancestor climbs, unbounded word-LCS, no memo, sequential",
	NsPerOp: 34_200_000,
	Pairs:   318,
	R1:      5547,
	R2:      4208,
	Total:   9755,
	Notes:   "recorded before the performance layer landed; the seed common() no longer exists to re-run",
}

// matchingPerfPair returns the fixed pair every run measures: the medium
// document set perturbed with the stage-benchmark mix.
func matchingPerfPair() (oldT, newT *tree.Tree, err error) {
	doc := gen.Document(Sets()[1].Params)
	pert, err := gen.Perturb(doc, gen.Mix(42, 24))
	if err != nil {
		return nil, nil, err
	}
	return doc, pert.New, nil
}

// CollectMatchingPerf measures the current engine on the medium pair and
// reports it against the recorded seed run. iters is the number of
// timed FastMatch calls (the median is reported); values below 3 are
// raised to 3.
func CollectMatchingPerf(iters int) (*MatchingPerfReport, error) {
	if iters < 3 {
		iters = 3
	}
	oldT, newT, err := matchingPerfPair()
	if err != nil {
		return nil, err
	}
	run := MatchingPerfRun{Name: "current", Config: "Euler index + bounded LCS on interned word IDs, sequential"}
	// Warm-up run, not timed (builds tree indexes).
	if _, err := match.FastMatch(oldT, newT, match.Options{}); err != nil {
		return nil, fmt.Errorf("bench: matchperf: %w", err)
	}
	times := make([]int64, iters)
	for i := range times {
		stats := &match.Stats{}
		start := time.Now()
		m, err := match.FastMatch(oldT, newT, match.Options{Stats: stats})
		times[i] = time.Since(start).Nanoseconds()
		if err != nil {
			return nil, fmt.Errorf("bench: matchperf: %w", err)
		}
		run.Pairs = m.Len()
		run.R1 = stats.LeafCompares
		run.R2 = stats.PartnerChecks
		run.Total = stats.Total()
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	run.NsPerOp = times[len(times)/2]
	report := &MatchingPerfReport{
		Benchmark:  "BenchmarkStageFastMatch",
		Pair:       "set-B(medium) ⊕ Mix(seed=42, ops=24)",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Before:     SeedMatchingBaseline,
		After:      run,
	}
	if run.NsPerOp > 0 {
		report.SpeedupX = float64(report.Before.NsPerOp) / float64(run.NsPerOp)
	}
	return report, nil
}

// WriteMatchingPerf writes the report as indented JSON to path.
func (r *MatchingPerfReport) WriteMatchingPerf(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
