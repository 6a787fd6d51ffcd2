package latex_test

import (
	"testing"

	"ladiff/internal/gen"
	"ladiff/internal/latex"
	"ladiff/internal/textdoc"
	"ladiff/internal/tree"
)

// BenchmarkSplitSentences splits the plain-text rendering of the
// sparse-1pct document (≈ 4000 sentences, one per line, each ending in a
// period, paragraphs separated by blank lines) in one call.
func BenchmarkSplitSentences(b *testing.B) {
	p := gen.SparseDoc()
	p.Seed = 1
	doc := gen.Document(p)
	doc.Walk(func(n *tree.Node) bool {
		if n.Label() == gen.LabelSentence {
			doc.SetValue(n, n.Value()+".")
		}
		return true
	})
	text := textdoc.Render(doc)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		sentencesSink = latex.SplitSentences(text)
	}
}

var sentencesSink []string
