package textdoc_test

import (
	"strings"
	"testing"
	"unsafe"

	"ladiff/internal/core"
	"ladiff/internal/gen"
	"ladiff/internal/textdoc"
	"ladiff/internal/tree"
)

func TestParseParagraphsAndSentences(t *testing.T) {
	src := `First sentence. Second sentence!

Second paragraph here? Yes indeed.


Third paragraph after extra blanks.`
	doc := textdoc.Parse(src)
	root := doc.Root()
	if root.NumChildren() != 3 {
		t.Fatalf("paragraphs = %d, want 3\n%v", root.NumChildren(), doc)
	}
	if root.Child(1).NumChildren() != 2 {
		t.Fatalf("first paragraph sentences = %d, want 2", root.Child(1).NumChildren())
	}
	if got := root.Child(2).Child(1).Value(); got != "Second paragraph here?" {
		t.Fatalf("sentence = %q", got)
	}
}

func TestParseEmptyAndWhitespace(t *testing.T) {
	for _, src := range []string{"", "   \n\n  \t\n"} {
		doc := textdoc.Parse(src)
		if doc.Root().NumChildren() != 0 {
			t.Fatalf("empty input produced %d paragraphs", doc.Root().NumChildren())
		}
	}
}

func TestCRLFNormalization(t *testing.T) {
	doc := textdoc.Parse("One.\r\n\r\nTwo.")
	if doc.Root().NumChildren() != 2 {
		t.Fatalf("CRLF input parsed into %d paragraphs, want 2", doc.Root().NumChildren())
	}
}

// TestSentencesDoNotPinSource checks that no sentence value shares the
// source string's backing array. SplitSentences returns substrings of its
// input, so Parse must split a copy of each paragraph: a sentence kept in
// a stored tree or script then pins its paragraph, never the document.
func TestSentencesDoNotPinSource(t *testing.T) {
	src := strings.Repeat("Clean sentence one. Spaced   sentence\r\ntwo!\n\n", 3) + "Tail words"
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	hi := lo + uintptr(len(src))
	n := 0
	for _, leaf := range textdoc.Parse(src).Leaves() {
		p := uintptr(unsafe.Pointer(unsafe.StringData(leaf.Value())))
		if p >= lo && p < hi {
			t.Errorf("sentence %q lies inside the source string", leaf.Value())
		}
		n++
	}
	if n != 7 {
		t.Fatalf("parsed %d sentences, want 7", n)
	}
}

func TestRoundTrip(t *testing.T) {
	src := "Alpha beta gamma. Delta epsilon.\n\nSecond paragraph sentence.\n"
	doc := textdoc.Parse(src)
	back := textdoc.Parse(textdoc.Render(doc))
	if !tree.Isomorphic(doc, back) {
		t.Fatalf("round trip broke isomorphism:\n%v\nvs\n%v", doc, back)
	}
}

func TestEndToEndDiff(t *testing.T) {
	// The edited paragraph keeps 2 of its 3 sentences so Criterion 2
	// re-identifies it (2/3 > 0.6).
	oldDoc := textdoc.Parse(`The first stable sentence lives here. Here is another stable anchor sentence. A sentence that will vanish entirely soon.

Another paragraph with distinct content words.`)
	newDoc := textdoc.Parse(`The first stable sentence lives here. Here is another stable anchor sentence. A freshly inserted sentence with new words.

Another paragraph with distinct content words.`)
	res, err := core.Diff(oldDoc, newDoc, core.Options{})
	if err != nil {
		t.Fatalf("Diff: %v", err)
	}
	ins, del, _, _ := res.Script.Counts()
	if ins != 1 || del != 1 {
		t.Fatalf("script %v: want one insert and one delete", res.Script)
	}
}

func TestRenderSections(t *testing.T) {
	// A tree with sections (from another front end) renders headings.
	doc := tree.NewWithRoot(gen.LabelDocument, "")
	sec := doc.AppendChild(doc.Root(), gen.LabelSection, "Heading")
	para := doc.AppendChild(sec, gen.LabelParagraph, "")
	doc.AppendChild(para, gen.LabelSentence, "Body sentence.")
	out := textdoc.Render(doc)
	if !strings.Contains(out, "Heading") || !strings.Contains(out, "Body sentence.") {
		t.Fatalf("render lost content:\n%s", out)
	}
}
