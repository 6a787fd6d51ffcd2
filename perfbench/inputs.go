package main

import (
	"ladiff"
	"ladiff/internal/gen"
)

// punctuated returns a copy of t whose sentences end in a period. Gen
// sentences carry no terminal punctuation, and the text and LaTeX front
// ends split sentences on it; without the period a rendered paragraph
// would parse back as one long sentence and every class would lose its
// shape.
func punctuated(t *ladiff.Tree) *ladiff.Tree {
	c := t.Clone()
	c.Walk(func(n *ladiff.Node) bool {
		if n.Label() == gen.LabelSentence {
			c.SetValue(n, n.Value()+".")
		}
		return true
	})
	return c
}

// render writes a generated document in format ("text" or "latex").
func render(format string, t *ladiff.Tree) string {
	if format == "latex" {
		return ladiff.RenderLatexPlain(punctuated(t))
	}
	return ladiff.RenderText(punctuated(t))
}

// parse reads src in format with the public parsers the server uses.
func parse(format, src string) (*ladiff.Tree, error) {
	if format == "latex" {
		return ladiff.ParseLatex(src)
	}
	return ladiff.ParseText(src), nil
}

// applyScript applies script to a clone of old and reports whether the
// result is isomorphic to new. When the diff had to wrap unmatched roots
// (wrapLabel non-empty) both trees are wrapped in a root of that label
// first, as the script expects.
func applyScript(old, new *ladiff.Tree, script ladiff.Script, wrapLabel ladiff.Label) bool {
	work := old.Clone()
	want := new
	if wrapLabel != "" {
		work.WrapRoot(wrapLabel, "")
		want = new.Clone()
		want.WrapRoot(wrapLabel, "")
	}
	if err := script.Apply(work); err != nil {
		return false
	}
	return ladiff.Isomorphic(work, want)
}
