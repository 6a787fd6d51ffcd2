package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call recorded by the benchmark's own wrappers. Its
// layer is the part of Name before the first dot; the root span of every
// op is named "op", and its self time is the op's unaccounted time.
type span struct {
	Op     int64  `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Derived marks a span whose duration was reported rather than
	// timed here: a server phase from the response's phaseMicros, or a
	// shadow parse/diff of a store ingest. It starts at its parent's
	// start.
	Derived bool `json:"derived,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

func (s span) layer() string {
	if s.Name == "op" {
		return "unaccounted"
	}
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, which is the untraced mode.
type recorder struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) newID() int64 { return r.ids.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.t0)) }

// opTrace is the tracing handle for one op: its root span and the id of
// the span new children attach to.
type opTrace struct {
	rec   *recorder
	op    int64
	root  int64
	start time.Time
}

// beginOp opens the root span of op; on a nil recorder it returns nil,
// and every method of a nil *opTrace just runs the call.
func (r *recorder) beginOp(op int64) *opTrace {
	if r == nil {
		return nil
	}
	return &opTrace{rec: r, op: op, root: r.newID(), start: time.Now()}
}

// end closes the root span.
func (t *opTrace) end() {
	if t == nil {
		return
	}
	t.rec.add(span{Op: t.op, ID: t.root, Name: "op", Start: t.rec.since(t.start), End: t.rec.since(time.Now())})
}

// do runs f inside a child span of the op's root named name and returns
// the span (the zero span when untraced).
func (t *opTrace) do(name string, f func()) span {
	if t == nil {
		f()
		return span{}
	}
	id := t.rec.newID()
	start := time.Now()
	f()
	s := span{Op: t.op, ID: id, Parent: t.root, Name: name, Start: t.rec.since(start), End: t.rec.since(time.Now())}
	t.rec.add(s)
	return s
}

// derived adds a reported-duration span under parent.
func (t *opTrace) derived(parent int64, parentStart int64, name string, d time.Duration) {
	if t == nil {
		return
	}
	t.rec.add(span{Op: t.op, ID: t.rec.newID(), Parent: parent, Name: name,
		Start: parentStart, End: parentStart + int64(d), Derived: true})
}

// ledger is the fold of a traced run's spans into per-layer self times.
type ledger struct {
	// selfMS holds, per layer, one self-time sum per op in which the
	// layer ran, in milliseconds.
	selfMS map[string][]float64
	// selfByName holds every span's self time in milliseconds, by span
	// name.
	selfByName map[string][]float64
	// selfTotal is each layer's self time summed over all ops.
	selfTotal map[string]time.Duration
	// wall is the summed duration of the ops' root spans.
	wall time.Duration
}

// fold computes every span's self time — its duration minus its
// children's — and sums it per layer and op.
func fold(spans []span) ledger {
	childSum := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			childSum[s.Parent] += s.dur()
		}
	}
	type key struct {
		op    int64
		layer string
	}
	perOp := map[key]time.Duration{}
	lg := ledger{selfMS: map[string][]float64{}, selfByName: map[string][]float64{}, selfTotal: map[string]time.Duration{}}
	var order []key
	for _, s := range spans {
		self := s.dur() - childSum[s.ID]
		k := key{s.Op, s.layer()}
		if _, seen := perOp[k]; !seen {
			order = append(order, k)
		}
		perOp[k] += self
		lg.selfByName[s.Name] = append(lg.selfByName[s.Name], ms(self))
		lg.selfTotal[k.layer] += self
		if s.Name == "op" {
			lg.wall += s.dur()
		}
	}
	for _, k := range order {
		lg.selfMS[k.layer] = append(lg.selfMS[k.layer], ms(perOp[k]))
	}
	return lg
}

// report writes the ledger's per-layer self-time medians and shares.
func (lg ledger) report(o *outcome) {
	for layer, xs := range lg.selfMS {
		if layer == "unaccounted" {
			continue
		}
		o.layer[layer+".self_ms_p50"] = quantile(xs, 0.5)
	}
	if lg.wall <= 0 {
		return
	}
	for layer, d := range lg.selfTotal {
		o.layer[layer+".share"] = float64(d) / float64(lg.wall)
	}
}

// maxWrittenSpans bounds the ledger file of a long traced run.
const maxWrittenSpans = 200_000

// writeLedger writes the host stamp, the folded per-layer summary and
// then the spans, one JSON object a line, to dir/<workload>-seed<N>.jsonl.
func writeLedger(cfg config, spans []span, o *outcome) error {
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	header := map[string]any{"host": hostStamp(), "workload": cfg.workload, "seed": cfg.seed,
		"spans": len(spans), "layers": o.layer}
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	if len(spans) > maxWrittenSpans {
		spans = spans[:maxWrittenSpans]
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// alternate measures tracing overhead: it runs untraced and traced blocks
// of the same work in pairs, alternating which runs first, until d has
// passed, and returns each pair's overhead in percent of the untraced
// block's time per op.
func alternate(d time.Duration, block func(pair int, traced bool) (time.Duration, int64)) []float64 {
	var pcts []float64
	deadline := time.Now().Add(d)
	for pair := 0; pair == 0 || time.Now().Before(deadline); pair++ {
		var per [2]float64
		for i := 0; i < 2; i++ {
			traced := (i == 1) == (pair%2 == 0)
			el, ops := block(pair, traced)
			if ops == 0 {
				ops = 1
			}
			t := 0
			if traced {
				t = 1
			}
			per[t] = float64(el) / float64(ops)
		}
		pcts = append(pcts, 100*(per[1]-per[0])/per[0])
	}
	return pcts
}

// overhead reports the tracing overhead's median and quartiles.
func overhead(o *outcome, pcts []float64) {
	o.layer["tracing.overhead_pct"] = quantile(pcts, 0.5)
	o.layer["tracing.overhead_pct_p25"] = quantile(pcts, 0.25)
	o.layer["tracing.overhead_pct_p75"] = quantile(pcts, 0.75)
	o.inputs["overhead_pairs"] = len(pcts)
}
