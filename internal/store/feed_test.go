package store

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"ladiff/internal/gen"
	"ladiff/internal/lderr"
	"ladiff/internal/testleak"
)

// drain collects everything currently buffered on the subscription
// without blocking on future events.
func drain(sub *Subscription) []Event {
	var evs []Event
	for {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				return evs
			}
			evs = append(evs, ev)
		default:
			return evs
		}
	}
}

// changeEvents filters the snapshot/catch-up preamble out.
func changeEvents(evs []Event) []Event {
	var out []Event
	for _, ev := range evs {
		if ev.Type == EventChange {
			out = append(out, ev)
		}
	}
	return out
}

// TestFeedFilterSemantics is the table-driven contract for server-side
// filters: an event fires iff the delta query selects at least one
// changed node in the version's delta tree, and the hits carry the
// right change kinds.
func TestFeedFilterSemantics(t *testing.T) {
	base := "doc\n" +
		"  p\n" +
		"    s \"alpha beta gamma delta\"\n" +
		"    s \"epsilon zeta eta theta\"\n" +
		"  p\n" +
		"    s \"iota kappa lambda mu\"\n"
	cases := []struct {
		name     string
		next     string
		filter   string
		wantFire bool
		wantKind string // a kind that must appear among the hits
	}{
		{
			name:   "unfiltered-update-fires",
			next:   "doc\n  p\n    s \"alpha beta gamma NU\"\n    s \"epsilon zeta eta theta\"\n  p\n    s \"iota kappa lambda mu\"\n",
			filter: "", wantFire: true, wantKind: "UPD",
		},
		{
			name:   "upd-filter-sees-update",
			next:   "doc\n  p\n    s \"alpha beta gamma NU\"\n    s \"epsilon zeta eta theta\"\n  p\n    s \"iota kappa lambda mu\"\n",
			filter: "**/s[upd]", wantFire: true, wantKind: "UPD",
		},
		{
			name:   "ins-filter-ignores-update",
			next:   "doc\n  p\n    s \"alpha beta gamma NU\"\n    s \"epsilon zeta eta theta\"\n  p\n    s \"iota kappa lambda mu\"\n",
			filter: "**/s[ins]", wantFire: false,
		},
		{
			name:   "ins-filter-sees-insert",
			next:   "doc\n  p\n    s \"alpha beta gamma delta\"\n    s \"epsilon zeta eta theta\"\n    s \"brand new sentence here\"\n  p\n    s \"iota kappa lambda mu\"\n",
			filter: "**/s[ins]", wantFire: true, wantKind: "INS",
		},
		{
			name:   "del-filter-sees-delete",
			next:   "doc\n  p\n    s \"alpha beta gamma delta\"\n  p\n    s \"iota kappa lambda mu\"\n",
			filter: "**/s[del]", wantFire: true, wantKind: "DEL",
		},
		{
			name:   "mov-filter-sees-move",
			next:   "doc\n  p\n    s \"epsilon zeta eta theta\"\n  p\n    s \"iota kappa lambda mu\"\n    s \"alpha beta gamma delta\"\n",
			filter: "**/s[mov]", wantFire: true, wantKind: "MOV",
		},
		{
			name: "path-scoped-filter-misses-other-paragraph",
			// The change is in the first paragraph; the filter watches
			// sentences of the second (index is positional in the delta
			// tree, so scope by content kind instead: watch deletions
			// under doc/p while only an update happened).
			next:   "doc\n  p\n    s \"alpha beta gamma NU\"\n    s \"epsilon zeta eta theta\"\n  p\n    s \"iota kappa lambda mu\"\n",
			filter: "doc/p/s[del]", wantFire: false,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s := New(Config{})
			ctx := context.Background()
			if _, err := s.Ingest(ctx, "k", "tree", base); err != nil {
				t.Fatal(err)
			}
			sub, err := s.Subscribe("k", SubscribeOptions{Filter: tc.filter})
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			if _, err := s.Ingest(ctx, "k", "tree", tc.next); err != nil {
				t.Fatal(err)
			}
			changes := changeEvents(drain(sub))
			if !tc.wantFire {
				if len(changes) != 0 {
					t.Fatalf("filter %q fired %d events on a non-matching change: %+v",
						tc.filter, len(changes), changes)
				}
				return
			}
			if len(changes) != 1 {
				t.Fatalf("filter %q: %d change events, want 1", tc.filter, len(changes))
			}
			ev := changes[0]
			if ev.Version != 2 || ev.TotalHits < 1 || len(ev.Hits) < 1 {
				t.Fatalf("event shape: %+v", ev)
			}
			if tc.wantKind != "" {
				found := false
				for _, h := range ev.Hits {
					if h.Kind == tc.wantKind {
						found = true
					}
				}
				if !found {
					t.Fatalf("no %s hit in %+v", tc.wantKind, ev.Hits)
				}
			}
		})
	}
}

// TestFeedIgnoreNormalization is the table-driven contract for ignore
// patterns: churn the patterns fully explain produces no event at all;
// mixed changes fire with the churn normalized out of the hits.
func TestFeedIgnoreNormalization(t *testing.T) {
	base := "doc\n" +
		"  meta \"updated 2026-08-08 09:00\"\n" +
		"  p\n" +
		"    s \"alpha beta gamma delta\"\n"
	stampOnly := "doc\n" +
		"  meta \"updated 2026-08-08 10:30\"\n" +
		"  p\n" +
		"    s \"alpha beta gamma delta\"\n"
	stampAndText := "doc\n" +
		"  meta \"updated 2026-08-08 11:45\"\n" +
		"  p\n" +
		"    s \"alpha beta gamma OMEGA\"\n"
	cases := []struct {
		name       string
		next       string
		ignore     []string
		wantFire   bool
		forbidHitV string // no hit may carry this value substring
	}{
		{"stamp-only-suppressed", stampOnly, []string{`updated .*`}, false, ""},
		{"stamp-only-without-ignore-fires", stampOnly, nil, true, ""},
		{"mixed-change-fires-without-stamp-hit", stampAndText, []string{`updated .*`}, true, "updated"},
		{"non-matching-ignore-changes-nothing", stampOnly, []string{`completely unrelated`}, true, ""},
		{"multiple-patterns", stampOnly, []string{`nothing here`, `updated .*`}, false, ""},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s := New(Config{})
			ctx := context.Background()
			if _, err := s.Ingest(ctx, "k", "tree", base); err != nil {
				t.Fatal(err)
			}
			sub, err := s.Subscribe("k", SubscribeOptions{Ignore: tc.ignore})
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			res, err := s.Ingest(ctx, "k", "tree", tc.next)
			if err != nil {
				t.Fatal(err)
			}
			// Normalization shapes notifications only: the version chain
			// always records the real content.
			if res.Noop || res.Version != 2 {
				t.Fatalf("ingest under ignore patterns altered versioning: %+v", res)
			}
			changes := changeEvents(drain(sub))
			if !tc.wantFire {
				if len(changes) != 0 {
					t.Fatalf("suppression failed: %+v", changes)
				}
				if s.Stats().FeedSuppressedTotal == 0 {
					t.Fatal("suppression not counted")
				}
				return
			}
			if len(changes) != 1 {
				t.Fatalf("%d change events, want 1", len(changes))
			}
			if tc.forbidHitV != "" {
				for _, h := range changes[0].Hits {
					if h.Value != "" && h.OldValue != "" &&
						(containsAny(h.Value, tc.forbidHitV) || containsAny(h.OldValue, tc.forbidHitV)) {
						t.Fatalf("normalized-away churn leaked into hits: %+v", h)
					}
				}
			}
		})
	}
}

func containsAny(s, sub string) bool { return strings.Contains(s, sub) }

// TestFeedDistinctIgnoreGroups: one fanout serves subscribers with
// different ignore sets independently — a stamp-only change suppresses
// the ignoring subscriber and fires the literal one.
func TestFeedDistinctIgnoreGroups(t *testing.T) {
	s := New(Config{})
	ctx := context.Background()
	if _, err := s.Ingest(ctx, "k", "tree", "doc\n  meta \"updated 09:00\"\n  p\n    s \"alpha beta\"\n"); err != nil {
		t.Fatal(err)
	}
	ignoring, err := s.Subscribe("k", SubscribeOptions{Ignore: []string{`updated .*`}})
	if err != nil {
		t.Fatal(err)
	}
	defer ignoring.Close()
	literal, err := s.Subscribe("k", SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer literal.Close()
	if _, err := s.Ingest(ctx, "k", "tree", "doc\n  meta \"updated 10:00\"\n  p\n    s \"alpha beta\"\n"); err != nil {
		t.Fatal(err)
	}
	if got := changeEvents(drain(ignoring)); len(got) != 0 {
		t.Fatalf("ignoring subscriber got %+v", got)
	}
	if got := changeEvents(drain(literal)); len(got) != 1 {
		t.Fatalf("literal subscriber got %d change events, want 1", len(got))
	}
}

// TestFeedSinceCatchup: the snapshot/catch-up preamble. A since ahead
// of the head (9 > 3: the consumer's cursor came from a different
// chain, e.g. after failover to a freshly restarted replica) is
// divergence too — the subscriber gets the catch-up hint and the
// snapshot re-anchors it, rather than erroring or silently pretending
// the cursor is current.
func TestFeedSinceCatchup(t *testing.T) {
	s := New(Config{})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		src := fmt.Sprintf("doc\n  p\n    s \"version number %d here\"\n", i)
		if _, err := s.Ingest(ctx, "k", "tree", src); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		since       int
		wantCatchup bool
	}{{0, false}, {1, true}, {2, true}, {3, false}, {9, true}} {
		sub, err := s.Subscribe("k", SubscribeOptions{Since: tc.since})
		if err != nil {
			t.Fatal(err)
		}
		evs := drain(sub)
		sub.Close()
		if len(evs) == 0 || evs[0].Type != EventSnapshot || evs[0].Version != 3 {
			t.Fatalf("since=%d: preamble %+v", tc.since, evs)
		}
		gotCatchup := len(evs) > 1 && evs[1].Type == EventCatchUp
		if gotCatchup != tc.wantCatchup {
			t.Fatalf("since=%d: catchup=%v, want %v (events %+v)", tc.since, gotCatchup, tc.wantCatchup, evs)
		}
	}
}

// TestFeedSlowSubscriberDrops: a subscriber that stops draining loses
// events (counted, surfaced on the next delivery) and never blocks
// ingest.
func TestFeedSlowSubscriberDrops(t *testing.T) {
	s := New(Config{FeedBuffer: 2})
	ctx := context.Background()
	if _, err := s.Ingest(ctx, "k", "tree", "doc\n  p\n    s \"starting point here\"\n"); err != nil {
		t.Fatal(err)
	}
	sub, err := s.Subscribe("k", SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// 6 changes into a buffer of 2 holding a snapshot: most must drop,
	// and none may block the ingest path.
	for i := 0; i < 6; i++ {
		src := fmt.Sprintf("doc\n  p\n    s \"revision number %d content\"\n", i)
		if _, err := s.Ingest(ctx, "k", "tree", src); err != nil {
			t.Fatal(err)
		}
	}
	if drops := s.Stats().FeedDroppedTotal; drops != 5 {
		t.Fatalf("dropped %d events, want 5 (buffer 2, one slot for the snapshot)", drops)
	}
	drain(sub)
	// The next delivered event reports what was lost.
	if _, err := s.Ingest(ctx, "k", "tree", "doc\n  p\n    s \"after the stall cleared\"\n"); err != nil {
		t.Fatal(err)
	}
	evs := changeEvents(drain(sub))
	if len(evs) != 1 || evs[0].Dropped != 5 {
		t.Fatalf("post-stall event: %+v, want Dropped=5", evs)
	}
}

// TestFeedErrors: filter and pattern syntax errors are parse-class;
// unknown keys are ErrUnknownKey.
func TestFeedErrors(t *testing.T) {
	s := New(Config{})
	if _, err := s.Subscribe("missing", SubscribeOptions{}); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("unknown key: %v", err)
	}
	if _, err := s.Ingest(context.Background(), "k", "text", "A sentence."); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Subscribe("k", SubscribeOptions{Filter: "[[["}); lderr.KindOf(err) != lderr.ErrParse {
		t.Fatalf("bad filter: %v", err)
	}
	if _, err := s.Subscribe("k", SubscribeOptions{Ignore: []string{"("}}); lderr.KindOf(err) != lderr.ErrParse {
		t.Fatalf("bad ignore pattern: %v", err)
	}
}

// TestFeedCloseSemantics: Close is idempotent; CloseFeeds terminates
// every subscription; a closed subscription's channel ends.
func TestFeedCloseSemantics(t *testing.T) {
	s := New(Config{})
	if _, err := s.Ingest(context.Background(), "k", "text", "A sentence."); err != nil {
		t.Fatal(err)
	}
	var subs []*Subscription
	for i := 0; i < 5; i++ {
		sub, err := s.Subscribe("k", SubscribeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	if got := s.Stats().FeedSubscribers; got != 5 {
		t.Fatalf("subscribers: %d", got)
	}
	subs[0].Close()
	subs[0].Close() // idempotent
	s.CloseFeeds()
	s.CloseFeeds() // idempotent across the board
	if got := s.Stats().FeedSubscribers; got != 0 {
		t.Fatalf("subscribers after CloseFeeds: %d", got)
	}
	for _, sub := range subs {
		for range sub.Events() {
		} // terminates because every channel is closed
	}
}

// TestFeedStorm exercises the feed core the way the chaos suite means
// it: many subscribers (some draining, some stalled, some closing
// mid-stream) against concurrent ingest on multiple documents, with a
// goroutine-leak check bracketing the lot. Run under -race.
func TestFeedStorm(t *testing.T) {
	defer testleak.Check(t)()
	s := New(Config{FeedBuffer: 4})
	ctx := context.Background()
	const docs, subsPerDoc, versions = 3, 8, 12

	chains := make([][]string, docs)
	for d := 0; d < docs; d++ {
		for _, doc := range versionChain(t, gen.Class{
			Doc:  gen.DocParams{Seed: int64(d + 1), Sections: 2},
			Pert: func(seed int64) gen.PerturbParams { return gen.Mix(seed, 6) },
		}, versions-1) {
			chains[d] = append(chains[d], doc.String())
		}
		if _, err := s.Ingest(ctx, key(d), "tree", chains[d][0]); err != nil {
			t.Fatal(err)
		}
	}

	// Stalled consumers park on this channel; it closes at the end so
	// the leak check sees them exit.
	stall := make(chan struct{})
	var wg sync.WaitGroup
	for d := 0; d < docs; d++ {
		for i := 0; i < subsPerDoc; i++ {
			sub, err := s.Subscribe(key(d), SubscribeOptions{
				Filter: []string{"", "**/sentence[changed]", "**/sentence[ins]"}[i%3],
			})
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(i int, sub *Subscription) {
				defer wg.Done()
				switch i % 3 {
				case 0: // diligent consumer: drains until close
					for range sub.Events() {
					}
				case 1: // quitter: reads one event, hangs up
					<-sub.Events()
					sub.Close()
					for range sub.Events() {
					}
				default: // stalled: never reads; must not block ingest
					<-stall
				}
			}(i, sub)
		}
	}

	var ingestWG sync.WaitGroup
	for d := 0; d < docs; d++ {
		ingestWG.Add(1)
		go func(d int) {
			defer ingestWG.Done()
			for _, src := range chains[d][1:] {
				if _, err := s.Ingest(ctx, key(d), "tree", src); err != nil {
					t.Errorf("ingest doc %d: %v", d, err)
					return
				}
			}
		}(d)
	}
	ingestWG.Wait()

	// Every version landed despite the stalled subscribers.
	for d := 0; d < docs; d++ {
		vers, err := s.Versions(key(d))
		if err != nil {
			t.Fatal(err)
		}
		if len(vers) != versions {
			t.Fatalf("doc %d: %d versions, want %d", d, len(vers), versions)
		}
	}
	s.CloseFeeds()
	close(stall)
	wg.Wait()
	if got := s.Stats().FeedSubscribers; got != 0 {
		t.Fatalf("subscribers after storm teardown: %d", got)
	}
}

func key(d int) string { return fmt.Sprintf("doc-%d", d) }
