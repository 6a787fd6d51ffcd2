package compare

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// TestWordIDsWithinAgrees checks the signature and interned-ID kernel of
// Matching Criterion 1 against the string comparer it replaces: for
// random values over a small vocabulary, joined by mixed Unicode white
// space and sometimes empty, WordIDs.Within must answer WordLCS(a, b) <= f
// for limits across the range the matcher accepts and beyond. One WordIDs
// serves every trial, so its interner and scratch buffer carry state
// across pairs exactly as they do within a matching run. Signature must
// count the words of Words and set exactly their hash bits.
func TestWordIDsWithinAgrees(t *testing.T) {
	vocab := []string{"alpha", "beta", "gamma", "Gamma", "delta", "épsilon", "\xff"}
	spaces := []string{" ", "  ", "\t", "\n", "\u0085", "\u00a0", "\u2003", "\u3000"}
	rng := rand.New(rand.NewSource(29))
	value := func() string {
		var b strings.Builder
		if rng.Intn(4) == 0 {
			b.WriteString(spaces[rng.Intn(len(spaces))])
		}
		for i, n := 0, rng.Intn(12); i < n; i++ {
			if i > 0 {
				b.WriteString(spaces[rng.Intn(len(spaces))])
			}
			b.WriteString(vocab[rng.Intn(len(vocab))])
		}
		if rng.Intn(4) == 0 {
			b.WriteString(spaces[rng.Intn(len(spaces))])
		}
		return b.String()
	}
	var w WordIDs
	for trial := 0; trial < 2000; trial++ {
		a, b := value(), value()
		sa, sb := Signature(a), Signature(b)
		for _, c := range []struct {
			v  string
			sg Sig
		}{{a, sa}, {b, sb}} {
			if int(c.sg.N) != len(Words(c.v)) || c.sg.Bag != referenceBag(Words(c.v)) {
				t.Fatalf("Signature(%q) = %d words, bag %#x; Words gives %d, bag %#x",
					c.v, c.sg.N, c.sg.Bag, len(Words(c.v)), referenceBag(Words(c.v)))
			}
		}
		dist := WordLCS(a, b)
		// The matcher's thresholds, then limits whose product with a
		// word count is not exact in floating point, and the distance
		// itself.
		for _, f := range []float64{0, 0.25, 0.5, 0.75, 1, 0.1, 0.3, 0.6, 0.7, dist} {
			if got, want := w.Within(a, b, &sa, &sb, f), dist <= f; got != want {
				t.Fatalf("Within(%q, %q, %v) = %v; WordLCS = %v", a, b, f, got, dist)
			}
		}
	}
}

// TestWordIDsWithinEmpty pins the empty-value conventions of WordLCS:
// two empty values are distance 0, one empty value is MaxDistance, and a
// value of white space alone is empty.
func TestWordIDsWithinEmpty(t *testing.T) {
	var w WordIDs
	empty, blank, word := Signature(""), Signature(" \u00a0\t"), Signature("a")
	if !w.Within("", " \u00a0\t", &empty, &blank, 0) {
		t.Error("empty vs blank within 0: want true")
	}
	if w.Within("a", "", &word, &empty, 1) {
		t.Error("nonempty vs empty within 1: want false (distance is 2)")
	}
	if !w.Within("a", "", &word, &empty, MaxDistance) {
		t.Error("nonempty vs empty within 2: want true")
	}
}

// TestNextWordMatchesFields checks the word scanner against
// strings.Fields on white space of every kind and on invalid UTF-8.
func TestNextWordMatchesFields(t *testing.T) {
	for _, s := range []string{
		"", " ", "one", " two  words ", "a\u0085b\u00a0c\u2003d", "\xffx\xfe \xc3", "tab\tnew\nline\r\v\f",
	} {
		var got []string
		for i := 0; ; {
			ws, we := NextWord(s, i)
			if ws == we {
				if ws != len(s) {
					t.Errorf("NextWord(%q) ended at %d, want %d", s, ws, len(s))
				}
				break
			}
			got = append(got, s[ws:we])
			i = we
		}
		if want := strings.Fields(s); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Errorf("NextWord words of %q = %q, want %q", s, got, want)
		}
	}
}

// TestSpaceHelpersMatchUnicode pins the exported white-space helpers to
// unicode.IsSpace, the definition strings.Fields uses.
func TestSpaceHelpersMatchUnicode(t *testing.T) {
	for c := 0; c < 256; c++ {
		if got, want := IsASCIISpace(byte(c)), c < utf8.RuneSelf && unicode.IsSpace(rune(c)); got != want {
			t.Errorf("IsASCIISpace(%#x) = %v, want %v", c, got, want)
		}
	}
	for _, s := range []string{" ", "x", "\t", "\u0085", "\u00a0", "\u2003", "\u3000", "\ufeff", "é", "\xff", "\xc3", "\xe2\x80"} {
		r, w := utf8.DecodeRuneInString(s)
		if space, width := SpaceAt(s, 0); space != unicode.IsSpace(r) || width != w {
			t.Errorf("SpaceAt(%q, 0) = %v, %d, want %v, %d", s, space, width, unicode.IsSpace(r), w)
		}
	}
}

// TestWithinRefusesForeignSig: a Sig records the WordIDs that interned
// its value, and another WordIDs refuses it instead of reading its own
// arena at that span.
func TestWithinRefusesForeignSig(t *testing.T) {
	a, b := "one two three", "one two four"
	sa, sb := Signature(a), Signature(b)
	if _, decided := Decide(sa, sb, 1); decided {
		t.Fatal("Decide settled the pair; the test needs one that is interned")
	}
	var w1, w2 WordIDs
	if !w1.Within(a, b, &sa, &sb, 1) || !w1.Within(a, b, &sa, &sb, 1) {
		t.Fatal("distance 2/3 within 1: want true, also on reuse")
	}
	// Give w2 an arena long enough that the span would not be out of
	// range there.
	c, d := "five six seven eight", "five six seven nine"
	sc, sd := Signature(c), Signature(d)
	if !w2.Within(c, d, &sc, &sd, 1) {
		t.Fatal("distance 2/4 within 1: want true")
	}
	defer func() {
		if recover() == nil {
			t.Error("Within with another WordIDs' Sig did not panic")
		}
	}()
	w2.Within(a, b, &sa, &sb, 1)
}

// TestWordLCSMatchesSliceForm pins the refactoring invariant that
// WordLCS(a, b) == WordSliceLCS(Words(a), Words(b)).
func TestWordLCSMatchesSliceForm(t *testing.T) {
	cases := [][2]string{
		{"", ""},
		{"one", ""},
		{"the quick brown fox", "the slow brown fox"},
		{"a b c d", "d c b a"},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%q-%q", c[0], c[1]), func(t *testing.T) {
			if got, want := WordSliceLCS(Words(c[0]), Words(c[1])), WordLCS(c[0], c[1]); got != want {
				t.Errorf("WordSliceLCS = %v, WordLCS = %v", got, want)
			}
		})
	}
}

// TestWordIDsWithinBound checks the word-bag signature reject against the
// string comparer. Two vocabularies stress it from both sides: 100 words
// (more than the 64 signature bits, so distinct words share a bit and the
// bound must stay a lower bound) and 3 words (values overlap heavily, so
// the bound rarely decides and the Myers search must). Values run from 0
// to 30 words, some blank; limits cover the matcher's thresholds, products
// that are inexact in floating point, MaxDistance and the exact distance.
// Besides the verdict, it checks the bound's strength: when the bit
// classes of one value's IDs that the other's miss already put the
// distance past the limit, Within must decide without a Myers search,
// which would leave the scratch diagonal array allocated, and without
// interning either value.
func TestWordIDsWithinBound(t *testing.T) {
	wide := make([]string, 100)
	for i := range wide {
		wide[i] = fmt.Sprintf("w%d", i)
	}
	for _, vocab := range [][]string{wide, {"x", "y", "z"}} {
		rng := rand.New(rand.NewSource(int64(len(vocab))))
		value := func() string {
			n := rng.Intn(31)
			if n > 0 && rng.Intn(8) == 0 {
				return strings.Repeat(" ", n) // blank: no words
			}
			words := make([]string, n)
			for i := range words {
				words[i] = vocab[rng.Intn(len(vocab))]
			}
			return strings.Join(words, " ")
		}
		var w WordIDs
		for trial := 0; trial < 3000; trial++ {
			a, b := value(), value()
			dist := WordLCS(a, b)
			wa, wb := Words(a), Words(b)
			n, m := len(wa), len(wb)
			onlyA, onlyB := missingClasses(wa, wb), missingClasses(wb, wa)
			for _, f := range []float64{0, .1, .25, .3, .5, .6, .7, .75, 1, 2, dist} {
				w.scratch = nil
				sa, sb := Signature(a), Signature(b)
				if got, want := w.Within(a, b, &sa, &sb, f), dist <= f; got != want {
					t.Fatalf("vocabulary of %d: Within(%q, %q, %v) = %v; WordLCS = %v",
						len(vocab), a, b, f, got, dist)
				}
				maxD := int(f*float64(max(n, m)) + 1e-9)
				if n > 0 && m > 0 && max(m-n+2*onlyA, n-m+2*onlyB) > maxD && (w.scratch != nil || sa.end != 0 || sb.end != 0) {
					t.Fatalf("vocabulary of %d: Within(%q, %q, %v) ran a Myers search the signature bound decides",
						len(vocab), a, b, f)
				}
			}
		}
	}
}

// missingClasses counts the signature bit classes of the words in a that
// no word in b falls in.
func missingClasses(a, b []string) int {
	return bits.OnesCount64(referenceBag(a) &^ referenceBag(b))
}

// referenceBag is the word-bag signature of words by hash/fnv: each word
// sets the bit bagBit maps its FNV-1a 64 hash to.
func referenceBag(words []string) uint64 {
	var bag uint64
	for _, word := range words {
		h := fnv.New64a()
		h.Write([]byte(word))
		bag |= bagBit(h.Sum64())
	}
	return bag
}

// FuzzWordIDsWithin checks WordIDs.Within against WordLCS on arbitrary
// value pairs; the limit byte spans [0, 2] in steps of 1/128.
func FuzzWordIDsWithin(f *testing.F) {
	f.Add("", "", byte(0))
	f.Add("a", "", byte(255))
	f.Add("the quick brown fox", "the slow brown fox", byte(64))
	f.Add("a b c d", "d c b a", byte(96))
	f.Add("x x x y", "y x x x x", byte(32))
	f.Add(" a b\xff", "b a", byte(128))
	f.Fuzz(func(t *testing.T, a, b string, lim byte) {
		limit := float64(lim) / 128
		var w WordIDs
		sa, sb := Signature(a), Signature(b)
		if got, want := w.Within(a, b, &sa, &sb, limit), WordLCS(a, b) <= limit; got != want {
			t.Fatalf("Within(%q, %q, %v) = %v; WordLCS = %v", a, b, limit, got, WordLCS(a, b))
		}
	})
}
