package latex_test

import (
	"slices"
	"strings"
	"testing"

	"ladiff/internal/latex"
	"ladiff/internal/tree"
)

// FuzzParse feeds arbitrary input to the LaTeX parser: it must never
// panic, and whenever it accepts the input, the resulting tree must be
// structurally valid and survive a render/re-parse round trip.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"plain prose without any commands at all.",
		"\\section{One}\nText here. More text!\n\n\\subsection{Two}\nDeep.",
		"\\begin{document}\n\\section{S}\nBody.\n\\end{document}",
		"\\begin{itemize}\n\\item a.\n\\item b.\n\\end{itemize}",
		"\\begin{itemize}\n\\item outer.\n\\begin{enumerate}\n\\item inner.\n\\end{enumerate}\n\\end{itemize}",
		"% only a comment",
		"\\section{unbalanced",
		"\\item stray",
		"\\begin{document} no end",
		"\\section{a}\n\\begin{weird}\ncontent.\n\\end{weird}",
		"\\section*{starred}\ntext.",
		"\\item[desc] described.",
		"100\\% escaped % comment",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc, err := latex.Parse(src)
		if err != nil {
			return
		}
		if err := doc.Validate(); err != nil {
			t.Fatalf("accepted tree is invalid: %v\ninput: %q", err, src)
		}
		// RenderPlain emits values verbatim, so the round trip is only
		// guaranteed when the content carries no raw LaTeX syntax of its
		// own (\, %, {, }) — text like "0\end{document}" legitimately
		// changes meaning when re-embedded. Skip those inputs.
		clean := true
		doc.Walk(func(n *tree.Node) bool {
			if strings.ContainsAny(n.Value(), `\%{}`) {
				clean = false
				return false
			}
			return true
		})
		if !clean {
			return
		}
		rendered := latex.RenderPlain(doc)
		back, err := latex.Parse(rendered)
		if err != nil {
			t.Fatalf("rendered output does not re-parse: %v\ninput: %q\nrendered: %q", err, src, rendered)
		}
		if !tree.Isomorphic(doc, back) {
			t.Fatalf("render round trip not isomorphic\ninput: %q", src)
		}
	})
}

// FuzzSplitSentences pins SplitSentences byte for byte to the reference
// splitter below: strings.Fields, then strings.Join of each sentence's
// words, with the abbreviation guard applied to strings.ToLower of the
// candidate. The seeds cover Unicode white space the byte scan must not
// miss (U+0085, U+00A0, U+2003, also right before and after a period),
// invalid UTF-8, words whose Unicode lower-casing differs from ASCII
// folding, and the cases where the scan's stop bytes and separator
// tracking could drift from the words: a doubled space inside a sentence,
// a period inside a word, a word of closers alone, text that ends on a
// terminator or in a white-space run, and control bytes that are not
// white space.
func FuzzSplitSentences(f *testing.F) {
	for _, s := range []string{"", "One. Two!", "e.g. kept", "a?b", "trailing",
		"One.\u0085Two. Three\u00a0four.\u2003Five.",
		"bad \xff. bytes\xfe here. \xc3.",
		"Mſ. Smith left. \u212A. Next. DR. Who. e.G. this. MRS. X.",
		"  spaced   out.\tTabs\nand\r\nbreaks.  ",
		"(Parenthesized end.) \"Quoted!\" Next?",
		"double  space mid sentence. Next.",
		"a.b c.",
		"closers )) alone. ))",
		"ends on a terminator!",
		"ctl\x01in words. and\x1fhere.",
		"nbsp\u00a0. em\u2003.\u00a0after.\u2003Next.",
		"trailing run.  \n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		got, want := latex.SplitSentences(text), referenceSplit(text)
		if !slices.Equal(got, want) {
			t.Fatalf("SplitSentences(%q) = %q, want %q", text, got, want)
		}
	})
}

// referenceSplit is the straightforward form of SplitSentences.
func referenceSplit(text string) []string {
	var out, cur []string
	for _, w := range strings.Fields(text) {
		cur = append(cur, w)
		if referenceSentenceEnd(w) {
			out = append(out, strings.Join(cur, " "))
			cur = nil
		}
	}
	if len(cur) > 0 {
		out = append(out, strings.Join(cur, " "))
	}
	return out
}

func referenceSentenceEnd(word string) bool {
	w := strings.TrimRight(word, `)]}'"`)
	if w == "" {
		return false
	}
	switch w[len(w)-1] {
	case '.', '!', '?':
	default:
		return false
	}
	switch strings.ToLower(strings.TrimRight(w, ".!?")) {
	case "e.g", "i.e", "cf", "etc", "vs", "dr", "mr", "mrs", "ms", "fig", "eq", "sec":
		return false
	}
	return true
}
