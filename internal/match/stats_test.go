package match_test

import (
	"testing"

	"ladiff/internal/compare"
	"ladiff/internal/gen"
	. "ladiff/internal/match"
	"ladiff/internal/tree"
)

// TestStatsRegressionFixedPair pins the logical comparison counters on a
// fixed tree pair (the medium benchmark document, perturbed with the
// benchmark mix). The pinned values are the Figure 13(b) cost model's
// r1 (leaf compares) and r2 (partner/containment checks); they must not
// drift under memoization, parallelism, or engine refactors — any
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
	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"memoized", Options{}},
		{"unmemoized-sequential", Options{DisableMemo: true, Parallelism: 1}},
		{"parallel", Options{Parallelism: 4}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			stats := &Stats{}
			opts := cfg.opts
			opts.Stats = stats
			m, err := FastMatch(doc, pert.New, opts)
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
			// Structural identities of the effective-work accounting:
			// every logical leaf compare is either executed or a memo hit,
			// and effective work never exceeds logical work.
			if stats.EffectiveLeafCompares+stats.LeafMemoHits != stats.LeafCompares {
				t.Errorf("leaf accounting broken: eff %d + hits %d != r1 %d",
					stats.EffectiveLeafCompares, stats.LeafMemoHits, stats.LeafCompares)
			}
			if stats.EffectivePartnerChecks > stats.PartnerChecks {
				t.Errorf("effective partner checks %d exceed logical %d",
					stats.EffectivePartnerChecks, stats.PartnerChecks)
			}
		})
	}
}

// TestWordIDKernelMatchesStringComparer runs every gen class twice: with
// the default comparer, which the matcher evaluates on interned word IDs,
// and with compare.WordLCS passed explicitly, which takes the string
// path of a custom comparer. Both must return the same matching with the
// same logical counters, under Match and FastMatch, sequential and
// parallel.
func TestWordIDKernelMatchesStringComparer(t *testing.T) {
	for _, c := range gen.Classes() {
		doc := c.Doc
		doc.Seed = 7
		old := gen.Document(doc)
		pert, err := gen.Perturb(old, c.Pert(8))
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []struct {
			name string
			run  func(*tree.Tree, *tree.Tree, Options) (*Matching, error)
		}{{"Match", Match}, {"FastMatch", FastMatch}} {
			for _, par := range []int{1, 2} {
				ids, str := &Stats{}, &Stats{}
				got, err := algo.run(old, pert.New, Options{Parallelism: par, Stats: ids})
				if err != nil {
					t.Fatal(err)
				}
				want, err := algo.run(old, pert.New, Options{Parallelism: par, Stats: str, Compare: compare.WordLCS})
				if err != nil {
					t.Fatal(err)
				}
				if !pairsEqual(got, want) {
					t.Errorf("%s/%s/P=%d: word-ID matching differs from the string comparer's", c.Name, algo.name, par)
				}
				if ids.LeafCompares != str.LeafCompares || ids.PartnerChecks != str.PartnerChecks {
					t.Errorf("%s/%s/P=%d: r1/r2 %d/%d, string comparer %d/%d", c.Name, algo.name, par,
						ids.LeafCompares, ids.PartnerChecks, str.LeafCompares, str.PartnerChecks)
				}
			}
		}
	}
}
