package compare_test

import (
	"testing"

	"ladiff/internal/compare"
	"ladiff/internal/gen"
	"ladiff/internal/tree"
)

// sparseSentences returns the sentence values of the sparse-1pct
// document, each ending in a period as the text front end parses them.
func sparseSentences() []string {
	p := gen.SparseDoc()
	p.Seed = 1
	var out []string
	gen.Document(p).Walk(func(n *tree.Node) bool {
		if n.Label() == gen.LabelSentence {
			out = append(out, n.Value()+".")
		}
		return true
	})
	return out
}

// BenchmarkSignature scans every sentence of the sparse-1pct document
// into its word count and word-bag signature, as a matching run does
// once per compared node.
func BenchmarkSignature(b *testing.B) {
	sentences := sparseSentences()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, s := range sentences {
			sigSink = compare.Signature(s)
		}
	}
}

// BenchmarkWithin tests each sentence of the sparse-1pct document against
// its successor at the default leaf threshold, from cached signatures:
// the unrelated pairs that make up almost every FastMatch compare.
func BenchmarkWithin(b *testing.B) {
	sentences := sparseSentences()
	sigs := make([]compare.Sig, len(sentences))
	for i, s := range sentences {
		sigs[i] = compare.Signature(s)
	}
	var w compare.WordIDs
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for i := 1; i < len(sentences); i++ {
			withinSink = w.Within(sentences[i-1], sentences[i], &sigs[i-1], &sigs[i], 0.5)
		}
	}
}

var (
	sigSink    compare.Sig
	withinSink bool
)
