package match_test

import (
	"math/rand"
	"testing"

	"ladiff/internal/compare"
	"ladiff/internal/gen"
	. "ladiff/internal/match"
	"ladiff/internal/textdoc"
	"ladiff/internal/tree"
)

// TestSignatureRejectRate pins how much of Criterion 1 the word-bag
// signatures decide on the inputs of the perfbench lib-corpus workload
// (seed 1, 8 pairs per gen class, text rendered with periods and parsed
// back, FastMatch with default options). For every compare whose values
// differ — the ones that reach the bound — it counts those the bound
// rejects and those left to a Myers search, and asks that at least 95%
// be rejected on every class. Every verdict test passes with a weak
// word→bit map too (the bound stays a lower bound), so this is the test
// that catches one: FNV-1a's top bits without the multiply finalizer
// reject only ~15% of the sparse-1pct compares.
//
// The compares are observed through a custom comparer that gives the
// default kernel's verdicts, so it sees the default run's sequence of
// compares; equal r1 confirms it.
func TestSignatureRejectRate(t *testing.T) {
	type tiers struct{ compares, reach, rejected, searched int64 }
	counts := map[string]*tiers{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		for _, c := range gen.Classes() {
			doc := c.Doc
			doc.Seed = rng.Int63()
			old := gen.Document(doc)
			pert, err := gen.Perturb(old, c.Pert(rng.Int63()))
			if err != nil {
				t.Fatal(err)
			}
			a := textdoc.Parse(textdoc.Render(punctuated(old)))
			b := textdoc.Parse(textdoc.Render(punctuated(pert.New)))

			tr := counts[c.Name]
			if tr == nil {
				tr = &tiers{}
				counts[c.Name] = tr
			}
			var w compare.WordIDs
			observe := func(x, y string) float64 {
				if x == y {
					return 0
				}
				tr.reach++
				sx, sy := compare.Signature(x), compare.Signature(y)
				within, decided := compare.Decide(sx, sy, DefaultLeafThreshold)
				switch {
				case !decided:
					tr.searched++
					within = w.Within(x, y, &sx, &sy, DefaultLeafThreshold)
				case !within:
					tr.rejected++
				}
				if within {
					return 0
				}
				return compare.MaxDistance
			}
			observed, def := &Stats{}, &Stats{}
			if _, err := FastMatch(a, b, Options{Compare: observe, Stats: observed}); err != nil {
				t.Fatal(err)
			}
			if _, err := FastMatch(a, b, Options{Stats: def}); err != nil {
				t.Fatal(err)
			}
			if observed.LeafCompares != def.LeafCompares {
				t.Fatalf("%s pair %d: observed run made %d compares, default run %d",
					c.Name, i, observed.LeafCompares, def.LeafCompares)
			}
			tr.compares += def.LeafCompares
		}
	}
	for _, c := range gen.Classes() {
		tr := counts[c.Name]
		share := float64(tr.rejected) / float64(tr.reach)
		t.Logf("%-20s r1 %7d  reach %7d  rejected %7d (%.1f%%)  Myers %5d",
			c.Name, tr.compares, tr.reach, tr.rejected, 100*share, tr.searched)
		if share < 0.95 {
			t.Errorf("%s: the signature bound rejects %d of %d compares (%.1f%%), want at least 95%%",
				c.Name, tr.rejected, tr.reach, 100*share)
		}
	}
}

// punctuated returns a copy of t whose sentences end in a period, as the
// lib-corpus workload renders them, so the text parser splits them back.
func punctuated(t *tree.Tree) *tree.Tree {
	c := t.Clone()
	c.Walk(func(n *tree.Node) bool {
		if n.Label() == gen.LabelSentence {
			c.SetValue(n, n.Value()+".")
		}
		return true
	})
	return c
}
