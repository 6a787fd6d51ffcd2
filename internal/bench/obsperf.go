// Observability-overhead evidence: the record behind BENCH_obs.json.
// The same full pipeline (core.Diff on the matchperf medium pair) is
// timed with the obs layer disabled, armed-but-untraced (the steady
// state of a request that was not sampled), and armed-and-traced (the
// full span tree recorded and offered to the ring). The acceptance
// target is <2% overhead traced vs disabled; the disabled path is one
// atomic load per checkpoint, pinned separately by the allocation and
// benchmark tests in internal/obs.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"ladiff/internal/core"
	"ladiff/internal/obs"
)

// ObsPerfRun is one measured observability configuration of the full
// Diff pipeline on the medium pair.
type ObsPerfRun struct {
	Name   string `json:"name"`
	Config string `json:"config"`
	// NsPerOp is the median wall-clock of one core.Diff call.
	NsPerOp int64 `json:"ns_per_op"`
	// Ops is the edit-script length, pinned across configurations: the
	// obs layer must not change what the engine computes.
	Ops int `json:"ops"`
}

// ObsPerfReport is the full BENCH_obs.json payload.
type ObsPerfReport struct {
	Benchmark  string       `json:"benchmark"`
	Pair       string       `json:"pair"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Runs       []ObsPerfRun `json:"runs"`
	// ArmedOverheadPct is (armed-untraced − disabled)/disabled × 100.
	ArmedOverheadPct float64 `json:"armed_overhead_pct"`
	// TracedOverheadPct is (armed-traced − disabled)/disabled × 100 —
	// the number the <2% acceptance target is about.
	TracedOverheadPct float64 `json:"traced_overhead_pct"`
}

// CollectObsPerf measures the pipeline in the three observability
// states. iters is the number of timed Diff calls per state (median
// reported); values below 5 are raised to 5.
func CollectObsPerf(iters int) (*ObsPerfReport, error) {
	if iters < 5 {
		iters = 5
	}
	oldT, newT, err := matchingPerfPair()
	if err != nil {
		return nil, err
	}

	// One Diff per iteration; ctx is non-nil only in the traced state.
	measure := func(name string, setup func() (func(), *obs.Trace, context.Context)) (ObsPerfRun, error) {
		run := ObsPerfRun{Name: name}
		// Warm-up run, not timed (builds tree indexes, warms caches).
		if _, err := core.Diff(oldT, newT, core.Options{}); err != nil {
			return run, fmt.Errorf("bench: obsperf %s warm-up: %w", name, err)
		}
		times := make([]int64, iters)
		for i := range times {
			teardown, tr, ctx := setup()
			opts := core.Options{Ctx: ctx}
			start := time.Now()
			res, err := core.Diff(oldT, newT, opts)
			times[i] = time.Since(start).Nanoseconds()
			if tr != nil {
				tr.Finish()
			}
			if teardown != nil {
				teardown()
			}
			if err != nil {
				return run, fmt.Errorf("bench: obsperf %s: %w", name, err)
			}
			run.Ops = len(res.Script)
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		run.NsPerOp = times[len(times)/2]
		return run, nil
	}

	report := &ObsPerfReport{
		Benchmark:  "obsperf(core.Diff)",
		Pair:       "set-B(medium) ⊕ Mix(seed=42, ops=24)",
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}

	disabled, err := measure("disabled", func() (func(), *obs.Trace, context.Context) {
		return nil, nil, nil
	})
	if err != nil {
		return nil, err
	}
	disabled.Config = "obs layer not armed: every checkpoint is one atomic load"
	report.Runs = append(report.Runs, disabled)

	armed, err := measure("armed-untraced", func() (func(), *obs.Trace, context.Context) {
		return obs.Activate(obs.Config{Ring: obs.NewRing(obs.DefaultRingCapacity)}), nil, nil
	})
	if err != nil {
		return nil, err
	}
	armed.Config = "obs armed, request not traced: checkpoints find no parent span"
	report.Runs = append(report.Runs, armed)

	traced, err := measure("armed-traced", func() (func(), *obs.Trace, context.Context) {
		ring := obs.NewRing(obs.DefaultRingCapacity)
		teardown := obs.Activate(obs.Config{Ring: ring})
		tr, ctx := obs.StartTrace(context.Background(), "obsperf", "bench")
		return func() {
			obs.Offer(tr)
			teardown()
		}, tr, ctx
	})
	if err != nil {
		return nil, err
	}
	traced.Config = "obs armed, full span tree recorded and offered to the ring"
	report.Runs = append(report.Runs, traced)

	if disabled.NsPerOp > 0 {
		report.ArmedOverheadPct = 100 * float64(armed.NsPerOp-disabled.NsPerOp) / float64(disabled.NsPerOp)
		report.TracedOverheadPct = 100 * float64(traced.NsPerOp-disabled.NsPerOp) / float64(disabled.NsPerOp)
	}
	return report, nil
}

// WriteObsPerf writes the report as indented JSON to path.
func (r *ObsPerfReport) WriteObsPerf(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
