package compare

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestWordIDsWithinAgrees checks the interned-ID kernel of Matching
// Criterion 1 against the string comparer it replaces: for random values
// over a small vocabulary, joined by mixed Unicode white space and
// sometimes empty, WordIDs.Within must answer WordLCS(a, b) <= f for
// limits across the range the matcher accepts and beyond. One WordIDs
// serves every trial, so its interner and scratch buffer carry state
// across pairs exactly as they do within a matching run.
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
		ia, ib := w.Tokenize(a), w.Tokenize(b)
		if len(ia) != len(Words(a)) || len(ib) != len(Words(b)) {
			t.Fatalf("Tokenize word counts %d, %d; Words gives %d, %d for %q, %q",
				len(ia), len(ib), len(Words(a)), len(Words(b)), a, b)
		}
		dist := WordLCS(a, b)
		// The matcher's thresholds, then limits whose product with a
		// word count is not exact in floating point, and the distance
		// itself.
		for _, f := range []float64{0, 0.25, 0.5, 0.75, 1, 0.1, 0.3, 0.6, 0.7, dist} {
			if got, want := w.Within(ia, ib, f), dist <= f; got != want {
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
	empty, blank, word := w.Tokenize(""), w.Tokenize(" \u00a0\t"), w.Tokenize("a")
	if !w.Within(empty, blank, 0) {
		t.Error("empty vs blank within 0: want true")
	}
	if w.Within(word, empty, 1) {
		t.Error("nonempty vs empty within 1: want false (distance is 2)")
	}
	if !w.Within(word, empty, MaxDistance) {
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
