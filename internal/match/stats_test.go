package match_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ladiff/internal/compare"
	"ladiff/internal/gen"
	"ladiff/internal/lderr"
	. "ladiff/internal/match"
	"ladiff/internal/tree"
)

// multiSchemaPair builds a tree pair whose label ranks each hold several
// labels (the document schema from internal/gen has exactly one label
// per rank). Rank 0 holds leaf labels {la, lb, lc}; rank 1 holds
// internal labels {A, B, C}; the root is doc. The new tree reuses most
// of the old values with seeded edits, deletes, and inserts so the
// matcher finds both exact and threshold matches.
func multiSchemaPair(seed int64) (*tree.Tree, *tree.Tree) {
	rng := rand.New(rand.NewSource(seed))
	vocab := []string{"red", "green", "blue", "cyan", "teal", "plum", "rust", "jade"}
	sentence := func() string {
		n := 3 + rng.Intn(5)
		s := ""
		for i := 0; i < n; i++ {
			if i > 0 {
				s += " "
			}
			s += vocab[rng.Intn(len(vocab))]
		}
		return s
	}
	internals := []tree.Label{"A", "B", "C"}
	leafLabels := []tree.Label{"la", "lb", "lc"}

	old := tree.NewWithRoot("doc", "")
	type slot struct {
		parent tree.Label
		leaves []struct {
			label tree.Label
			value string
		}
	}
	var slots []slot
	for i := 0; i < 6; i++ {
		s := slot{parent: internals[rng.Intn(len(internals))]}
		for j := 0; j < 2+rng.Intn(4); j++ {
			s.leaves = append(s.leaves, struct {
				label tree.Label
				value string
			}{leafLabels[rng.Intn(len(leafLabels))], sentence()})
		}
		slots = append(slots, s)
	}
	for _, s := range slots {
		p := old.AppendChild(old.Root(), s.parent, "")
		for _, l := range s.leaves {
			old.AppendChild(p, l.label, l.value)
		}
	}

	// New version: drop one slot, edit some values, add one fresh slot.
	niu := tree.NewWithRoot("doc", "")
	for i, s := range slots {
		if i == len(slots)-1 {
			continue // deletion
		}
		p := niu.AppendChild(niu.Root(), s.parent, "")
		for _, l := range s.leaves {
			v := l.value
			switch rng.Intn(4) {
			case 0: // word-level update, usually within threshold
				v = v + " " + vocab[rng.Intn(len(vocab))]
			case 1: // full rewrite
				v = sentence()
			}
			niu.AppendChild(p, l.label, v)
		}
	}
	p := niu.AppendChild(niu.Root(), internals[rng.Intn(len(internals))], "")
	for j := 0; j < 3; j++ {
		niu.AppendChild(p, leafLabels[rng.Intn(len(leafLabels))], sentence())
	}
	return old, niu
}

func pairsEqual(a, b *Matching) bool {
	pa, pb := a.Pairs(), b.Pairs()
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		if pa[i] != pb[i] {
			return false
		}
	}
	return true
}

type algorithm struct {
	name string
	run  func(*tree.Tree, *tree.Tree, Options) (*Matching, error)
}

var algorithms = []algorithm{{"Match", Match}, {"FastMatch", FastMatch}}

// classPair generates one gen class's benchmark pair at a fixed seed.
func classPair(t *testing.T, c gen.Class) (*tree.Tree, *tree.Tree) {
	t.Helper()
	doc := c.Doc
	doc.Seed = 7
	old := gen.Document(doc)
	pert, err := gen.Perturb(old, c.Pert(8))
	if err != nil {
		t.Fatal(err)
	}
	return old, pert.New
}

// TestStatsRegressionFixedPair pins the logical comparison counters on a
// fixed tree pair (the medium benchmark document, perturbed with the
// benchmark mix). The pinned values are the Figure 13(b) cost model's
// r1 (leaf compares) and r2 (partner/containment checks); any
// intentional change to the logical cost model has to update this test
// explicitly.
func TestStatsRegressionFixedPair(t *testing.T) {
	doc := gen.Document(gen.DocParams{
		Seed: 202, Sections: 8,
		MinParagraphs: 4, MaxParagraphs: 7,
		MinSentences: 5, MaxSentences: 9,
		Vocabulary: 4000,
	})
	pert, err := gen.Perturb(doc, gen.Mix(42, 24))
	if err != nil {
		t.Fatal(err)
	}

	const (
		wantPairs = 318
		wantR1    = 5547
		wantR2    = 2513
	)
	stats := &Stats{}
	m, err := FastMatch(doc, pert.New, Options{Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != wantPairs {
		t.Errorf("pairs = %d, want %d", m.Len(), wantPairs)
	}
	if stats.LeafCompares != wantR1 {
		t.Errorf("r1 (LeafCompares) = %d, want %d", stats.LeafCompares, wantR1)
	}
	if stats.PartnerChecks != wantR2 {
		t.Errorf("r2 (PartnerChecks) = %d, want %d", stats.PartnerChecks, wantR2)
	}
	if got, want := stats.Total(), int64(wantR1+wantR2); got != want {
		t.Errorf("total = %d, want %d", got, want)
	}
	// The engine keeps no memo: every logical comparison executes.
	if stats.EffectiveTotal() != stats.Total() || stats.EffectiveLeafCompares != stats.LeafCompares {
		t.Errorf("effective work %+v differs from logical work", *stats)
	}
	if stats.LeafMemoHits != 0 || stats.InternalMemoHits != 0 {
		t.Errorf("memo hits recorded: %+v", *stats)
	}
}

// checkWordIDKernel runs one tree pair twice: with the default comparer,
// which the matcher evaluates on interned word IDs, and with
// compare.WordLCS passed explicitly, which takes the string path of a
// custom comparer. Both must return the same matching with the same
// logical counters, under Match and FastMatch.
func checkWordIDKernel(t *testing.T, old, niu *tree.Tree) {
	t.Helper()
	for _, algo := range algorithms {
		ids, str := &Stats{}, &Stats{}
		got, err := algo.run(old, niu, Options{Stats: ids})
		if err != nil {
			t.Fatal(err)
		}
		want, err := algo.run(old, niu, Options{Stats: str, Compare: compare.WordLCS})
		if err != nil {
			t.Fatal(err)
		}
		if !pairsEqual(got, want) {
			t.Errorf("%s: word-ID matching differs from the string comparer's", algo.name)
		}
		if ids.LeafCompares != str.LeafCompares || ids.PartnerChecks != str.PartnerChecks {
			t.Errorf("%s: r1/r2 %d/%d, string comparer %d/%d", algo.name,
				ids.LeafCompares, ids.PartnerChecks, str.LeafCompares, str.PartnerChecks)
		}
	}
}

// TestWordIDKernelMatchesStringComparer checks the word-ID kernel
// against the string comparer on every gen class.
func TestWordIDKernelMatchesStringComparer(t *testing.T) {
	for _, c := range gen.Classes() {
		t.Run(c.Name, func(t *testing.T) {
			old, niu := classPair(t, c)
			checkWordIDKernel(t, old, niu)
		})
	}
}

// TestWordIDKernelMultiLabelEquivalence checks the word-ID kernel
// against the string comparer on seeded multi-label rank schemas, where
// several labels share a rank.
func TestWordIDKernelMultiLabelEquivalence(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			old, niu := multiSchemaPair(seed)
			checkWordIDKernel(t, old, niu)
		})
	}
}

// TestWorkBudgetExactTripPoint pins the WorkBudget contract on every gen
// class and on a multi-label schema: a budget equal to an unbudgeted
// run's r1+r2 completes with the identical matching, and one unit less
// degrades with an lderr.ErrDegraded-tagged error.
func TestWorkBudgetExactTripPoint(t *testing.T) {
	type input struct {
		name     string
		old, niu *tree.Tree
	}
	var inputs []input
	for _, c := range gen.Classes() {
		old, niu := classPair(t, c)
		inputs = append(inputs, input{c.Name, old, niu})
	}
	old, niu := multiSchemaPair(3)
	inputs = append(inputs, input{"multi-label", old, niu})
	for _, in := range inputs {
		for _, algo := range algorithms {
			t.Run(in.name+"/"+algo.name, func(t *testing.T) {
				stats := &Stats{}
				want, err := algo.run(in.old, in.niu, Options{Stats: stats})
				if err != nil {
					t.Fatal(err)
				}
				total := stats.Total()
				got, err := algo.run(in.old, in.niu, Options{WorkBudget: total})
				if err != nil {
					t.Fatalf("budget %d (= r1+r2): %v", total, err)
				}
				if !pairsEqual(got, want) {
					t.Errorf("budget %d: matching differs from the unbudgeted run", total)
				}
				_, err = algo.run(in.old, in.niu, Options{WorkBudget: total - 1})
				if !errors.Is(err, lderr.ErrDegraded) {
					t.Errorf("budget %d (r1+r2 − 1): err = %v, want ErrDegraded", total-1, err)
				}
			})
		}
	}
}

// TestCancelledRunAborts pins the cancellation contract: a context
// cancelled before or during a run aborts it with an ErrCanceled-tagged
// error wrapping context.Canceled, never a partial matching, and a run
// the cancellation misses returns the full matching.
func TestCancelledRunAborts(t *testing.T) {
	old, niu := classPair(t, gen.Classes()[0])
	for _, algo := range algorithms {
		want, err := algo.run(old, niu, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if m, err := algo.run(old, niu, Options{Ctx: ctx}); m != nil ||
			!errors.Is(err, context.Canceled) || !errors.Is(err, lderr.ErrCanceled) {
			t.Errorf("%s: pre-cancelled run returned %v, %v", algo.name, m, err)
		}
		ctx, cancel = context.WithCancel(context.Background())
		go cancel()
		m, err := algo.run(old, niu, Options{Ctx: ctx})
		switch {
		case err != nil && (m != nil || !errors.Is(err, context.Canceled)):
			t.Errorf("%s: cancelled run returned %v, %v", algo.name, m, err)
		case err == nil && !pairsEqual(m, want):
			t.Errorf("%s: run the cancellation missed differs from the plain run", algo.name)
		}
	}
}
