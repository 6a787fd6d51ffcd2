package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees, printed by --trace 0 runs.
// Every workload reports every one of them, so each is defined for all
// three: an op is one pair (lib-corpus), one request (serve-routed) or
// one store call (store-history).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "ops/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p90", "ms"},
	{"script_cost", "cost"},
	{"alloc_kb_per_op", "KiB"},
	{"heap_mb", "MiB"},
}

// perLayer is printed by --trace 1 runs. A layer a workload does not run
// reports 0.
var perLayer = []metricDef{
	{"textdoc.self_ms_p50", "ms"}, {"textdoc.share", "ratio"},
	{"latex.self_ms_p50", "ms"},
	{"match.self_ms_p50", "ms"}, {"match.share", "ratio"},
	{"match.leaf_compares", "count"}, {"match.partner_checks", "count"},
	{"match.effective_compares", "count"}, {"match.memo_hits", "count"},
	{"match.pruned_pairs", "count"}, {"match.matched_ratio", "ratio"},
	{"core.self_ms_p50", "ms"}, {"core.share", "ratio"},
	{"core.visits", "count"}, {"core.align_equals", "count"},
	{"core.effective_pos_scans", "count"}, {"core.ops", "count"},
	{"delta.self_ms_p50", "ms"}, {"delta.share", "ratio"},
	{"render.self_ms_p50", "ms"}, {"render.share", "ratio"},
	{"client.self_ms_p50", "ms"}, {"client.share", "ratio"}, {"client.retries", "count"},
	{"route.self_ms_p50", "ms"}, {"route.share", "ratio"},
	{"route.owner_share", "ratio"}, {"route.failovers", "count"},
	{"route.hedges", "count"}, {"route.balance", "ratio"},
	{"server.self_ms_p50", "ms"}, {"server.share", "ratio"},
	{"sched.rejected_ratio", "ratio"},
	{"store.self_ms_p50", "ms"}, {"store.share", "ratio"},
	{"store.ingest_ms_p50", "ms"}, {"store.ingest_ms_p90", "ms"},
	{"store.checkout_ms_p50", "ms"}, {"store.checkout_ms_p90", "ms"},
	{"store.checkout_replays", "count"}, {"store.compose_ms_p50", "ms"},
	{"store.log_bytes_per_version", "B"}, {"store.replay_ms", "ms"},
	{"store.noop_share", "ratio"},
	{"unaccounted.share", "ratio"},
	{"tracing.overhead_pct", "%"}, {"tracing.overhead_pct_p25", "%"}, {"tracing.overhead_pct_p75", "%"},
	{"fail_ratio", "ratio"},
}

// outcome is what a workload run produced.
type outcome struct {
	attempted, failed int64
	// mismatches describes each wrong output; each also counts in failed.
	mismatches []string
	e2e, layer map[string]float64
	// inputs are the measured input-property shares.
	inputs map[string]any
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, inputs: map[string]any{}}
}

// wrong records a wrong output.
func (o *outcome) wrong(msg string) {
	o.failed++
	o.mismatches = append(o.mismatches, msg)
}

func (o *outcome) correct() bool { return o.failed == 0 }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (o *outcome) result(trace bool) resultLine {
	defs, values := endToEnd, o.e2e
	if trace {
		defs, values = perLayer, o.layer
		if o.attempted > 0 {
			values["fail_ratio"] = float64(o.failed) / float64(o.attempted)
		}
	}
	ms := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		ms[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	attempted := o.attempted
	if attempted < 1 {
		attempted = 1
	}
	return resultLine{Correct: o.correct(), Attempted: attempted, Failed: o.failed, Metrics: ms}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// share is part/total, or 0 for an empty total.
func share(part, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(part) / float64(total)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// msQuantile is quantile over durations, in milliseconds.
func msQuantile(ds []time.Duration, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return quantile(xs, q)
}

// medianSetup runs setup n times and returns the median duration it
// reports. Each run after the first tears down the previous one first,
// through the teardown it returned.
func medianSetup(n int, setup func() (time.Duration, func(), error)) (float64, error) {
	var ds []float64
	var teardown func()
	for i := 0; i < n; i++ {
		if teardown != nil {
			teardown()
		}
		runtime.GC()
		d, td, err := setup()
		if err != nil {
			return 0, err
		}
		teardown = td
		ds = append(ds, d.Seconds())
	}
	return quantile(ds, 0.5), nil
}

// allocMeter measures bytes allocated between start and stop.
type allocMeter struct{ before uint64 }

func startAlloc() allocMeter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocMeter{before: m.TotalAlloc}
}

func (a allocMeter) stop() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc - a.before
}

// liveHeapMiB is the live heap after full collections. The second one
// empties the sync.Pool victim caches the first one left.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// sample is one timed op: its latency and when it ended, as an offset
// from the start of the measured window.
type sample struct{ lat, end time.Duration }

// timedResults turns a measured window into the shared end-to-end
// metrics. The samples, ordered by end, are cut into consecutive slices
// of per ops; throughput and the latency percentiles are computed per
// slice and reported as their median over slices, so a burst of load
// from outside the benchmark moves a few slices rather than the result.
func (o *outcome) timedResults(samples []sample, per int, alloc uint64) {
	sort.Slice(samples, func(i, j int) bool { return samples[i].end < samples[j].end })
	per = min(per, len(samples))
	var tput, p50, p90 []float64
	var prev time.Duration
	for i := 0; per > 0 && i+per <= len(samples); i += per {
		slice := samples[i : i+per]
		lats := make([]time.Duration, len(slice))
		for j, s := range slice {
			lats[j] = s.lat
		}
		end := slice[len(slice)-1].end
		tput = append(tput, float64(per)/(end-prev).Seconds())
		p50 = append(p50, msQuantile(lats, 0.5))
		p90 = append(p90, msQuantile(lats, 0.9))
		prev = end
	}
	o.e2e["throughput_ops_s"] = quantile(tput, 0.5)
	o.e2e["latency_ms_p50"] = quantile(p50, 0.5)
	o.e2e["latency_ms_p90"] = quantile(p90, 0.5)
	if len(samples) > 0 {
		o.e2e["alloc_kb_per_op"] = float64(alloc) / 1024 / float64(len(samples))
	}
	o.inputs["slices"] = len(tput)
}

// host is the stamp printed with every result.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Rev        string `json:"rev"`
}

func hostStamp() host {
	h := host{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Rev: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			h.Rev = rev + dirty
		}
	}
	return h
}
