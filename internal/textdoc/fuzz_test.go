package textdoc_test

import (
	"errors"
	"strings"
	"testing"

	"ladiff/internal/gen"
	"ladiff/internal/latex"
	"ladiff/internal/lderr"
	"ladiff/internal/textdoc"
	"ladiff/internal/tree"
)

// FuzzParse feeds arbitrary input to the plain-text parser: it accepts
// everything, so it must never panic, always yield a valid tree isomorphic
// to referenceParse's, and survive a render/re-parse round trip; the
// streaming limit guard must hold under the same inputs.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"One sentence.",
		"One. Two! Three?",
		"Para one.\n\nPara two.",
		"Line one\nline two of same para.",
		"\n\n\n",
		"Windows\r\nline endings.\r\n\r\nSecond para.",
		"no terminal punctuation",
		"e.g. an abbreviation. Next sentence.",
		"   leading and trailing   ",
		"unicode: héllo wörld. ¿Qué tal?",
		"a.b.c...",
		"lone\rcarriage. Returns\r\rhere.",
		"Para one.\r\r\nPara two?\r\r\n\r\r\nPara three.",
		"Above.\n\u0085\nBelow.",
		"Above.\n\u00a0\nBelow.",
		"Above.\n\u2003 \u2003\nBelow.",
		"bad \xff utf8.\n\xc3\n\n\xfe\xfe",
		"no trailing newline. Last words",
		"double  space mid sentence. Next.",
		"a.b c.",
		"closers )) alone. ))",
		"ends on a terminator!",
		"ctl\x01in words. and\x1fhere.",
		"nbsp\u00a0. em\u2003.\u00a0after.\u2003Next.",
		"trailing run.  \n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc := textdoc.Parse(src)
		if err := doc.Validate(); err != nil {
			t.Fatalf("parsed tree invalid: %v\ninput: %q", err, src)
		}
		if ref := referenceParse(src); !tree.Isomorphic(doc, ref) {
			t.Fatalf("Parse differs from referenceParse\ninput: %q\ngot:  %v\nwant: %v", src, doc, ref)
		}
		rendered := textdoc.Render(doc)
		back := textdoc.Parse(rendered)
		if !tree.Isomorphic(doc, back) {
			t.Fatalf("render round trip not isomorphic\ninput: %q\nrendered: %q", src, rendered)
		}
		lim, err := textdoc.ParseLimited(src, tree.Limits{MaxNodes: 4, MaxDepth: 3})
		if err != nil {
			if !errors.Is(err, lderr.ErrLimit) {
				t.Fatalf("limited parse failed without ErrLimit: %v\ninput: %q", err, src)
			}
			return
		}
		if lim.Len() > 4 {
			t.Fatalf("limited parse built %d nodes past MaxNodes=4\ninput: %q", lim.Len(), src)
		}
	})
}

// referenceParse is the straightforward form of textdoc.Parse: normalize
// CRLF, collapse runs of white-space-only lines into one blank line, split
// on the blank lines, and split each block's sentences.
func referenceParse(src string) *tree.Tree {
	src = strings.ReplaceAll(src, "\r\n", "\n")
	var lines []string
	blank := true
	for _, line := range strings.Split(src, "\n") {
		if strings.TrimSpace(line) == "" {
			if !blank {
				lines = append(lines, "")
			}
			blank = true
			continue
		}
		blank = false
		lines = append(lines, line)
	}
	t := tree.New()
	t.SetRoot(gen.LabelDocument, "")
	for _, block := range strings.Split(strings.Join(lines, "\n"), "\n\n") {
		sentences := latex.SplitSentences(strings.Clone(block))
		if len(sentences) == 0 {
			continue
		}
		para := t.AppendChild(t.Root(), gen.LabelParagraph, "")
		for _, s := range sentences {
			t.AppendChild(para, gen.LabelSentence, s)
		}
	}
	return t
}
