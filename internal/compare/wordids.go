package compare

import (
	"math/bits"
	"unicode"
	"unicode/utf8"

	"ladiff/internal/lcs"
)

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// spaceRune reports whether the rune starting at byte i of s, a
// non-ASCII lead byte, is white space, and its width in bytes. An invalid
// UTF-8 byte decodes as a one-byte U+FFFD, which is not space, as in
// strings.Fields.
func spaceRune(s string, i int) (bool, int) {
	r, w := utf8.DecodeRuneInString(s[i:])
	return unicode.IsSpace(r), w
}

// NextWord returns the byte span [start, end) of the first word of s at
// or after byte i. Words are those of Words (strings.Fields): maximal
// runs of runes that unicode.IsSpace rejects. When no word remains,
// start == end == len(s).
func NextWord(s string, i int) (start, end int) {
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if !asciiSpace[c] {
				break
			}
			i++
			continue
		}
		space, w := spaceRune(s, i)
		if !space {
			break
		}
		i += w
	}
	start = i
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if asciiSpace[c] {
				break
			}
			i++
			continue
		}
		space, w := spaceRune(s, i)
		if space {
			break
		}
		i += w
	}
	return start, i
}

// Tokens is a tokenized value: its word IDs and their word-bag
// signature, in which bit id&63 is set for each ID. Equal words set equal
// bits, so a bit set in one signature and clear in another marks words of
// the first value that occur nowhere in the second.
type Tokens struct {
	IDs []uint32
	Bag uint64
}

// WordIDs tokenizes values into interned word IDs and decides the
// word-LCS threshold test of Matching Criterion 1 over them. Each value
// is split once, with the word boundaries of Words, into a []uint32 in
// which equal words carry equal IDs, so the Myers search compares
// integers instead of strings. The zero value is ready to use. A WordIDs
// is not safe for concurrent use, and IDs from two WordIDs values are
// unrelated.
type WordIDs struct {
	ids map[string]uint32
	// arena backs every returned ID slice; a slice returned earlier keeps
	// the array it was cut from when append moves the arena.
	arena []uint32
	// scratch is the Myers diagonal array, reused across Within calls.
	scratch []int
}

// Tokenize returns the word IDs of s and their signature. The IDs are
// read-only to the caller and stay valid for the life of w.
func (w *WordIDs) Tokenize(s string) Tokens {
	if w.ids == nil {
		w.ids = make(map[string]uint32)
	}
	start := len(w.arena)
	var bag uint64
	for i := 0; ; {
		ws, we := NextWord(s, i)
		if ws == we {
			break
		}
		id, ok := w.ids[s[ws:we]]
		if !ok {
			id = uint32(len(w.ids))
			w.ids[s[ws:we]] = id
		}
		w.arena = append(w.arena, id)
		bag |= 1 << (id & 63)
		i = we
	}
	return Tokens{IDs: w.arena[start:len(w.arena):len(w.arena)], Bag: bag}
}

// Within reports whether the word-LCS distance of the values a and b
// were tokenized from is at most limit: it agrees with
// WordLCS(va, vb) <= limit for every pair of values and every limit in
// [0, 2]. The distance is D / max(n, m) for n = len(a.IDs) and
// m = len(b.IDs), where D = n + m − 2·|LCS| is exactly Myers' edit
// distance, so the question is whether D ≤ maxD = limit·max(n, m).
//
// Most pairs a matcher tests are unrelated, and the signatures reject
// them in O(1). Let k = popcount(a.Bag &^ b.Bag). Every word of a whose
// bit is clear in b.Bag occurs nowhere in b, so it is in no LCS, and each
// of the k bits stands for at least one such word of a; hence
// |LCS| ≤ n − k and D ≥ m − n + 2k. The same holds with a and b swapped,
// so L = max(m − n + 2·popcount(a.Bag &^ b.Bag),
// n − m + 2·popcount(b.Bag &^ a.Bag)) is a lower bound on D, and L > maxD
// decides "no" exactly. Pairs the bound admits run the Myers search,
// which stops as soon as D provably exceeds maxD — O((n+m)·maxD) work
// instead of the O((n+m)·D) of a full computation.
func (w *WordIDs) Within(a, b Tokens, limit float64) bool {
	n, m := len(a.IDs), len(b.IDs)
	if n == 0 && m == 0 {
		return limit >= 0
	}
	if n == 0 || m == 0 {
		return MaxDistance <= limit
	}
	// D ≤ limit·maxLen, with a nudge so exact threshold products that
	// round just below an integer still admit it (D is integral).
	maxD := int(limit*float64(max(n, m)) + 1e-9)
	onlyA := bits.OnesCount64(a.Bag &^ b.Bag)
	onlyB := bits.OnesCount64(b.Bag &^ a.Bag)
	if max(m-n+2*onlyA, n-m+2*onlyB) > maxD {
		return false
	}
	x, y := a.IDs, b.IDs
	// A common prefix or suffix is part of some LCS, so stripping it
	// leaves D unchanged and shrinks the search to the edited middle.
	for len(x) > 0 && len(y) > 0 && x[0] == y[0] {
		x, y = x[1:], y[1:]
	}
	for len(x) > 0 && len(y) > 0 && x[len(x)-1] == y[len(y)-1] {
		x, y = x[:len(x)-1], y[:len(y)-1]
	}
	_, ok := lcs.DistanceWithin(x, y, maxD, &w.scratch)
	return ok
}
