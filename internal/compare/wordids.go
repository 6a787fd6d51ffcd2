package compare

import (
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

// Tokenize returns the word IDs of s. The slice is read-only to the
// caller and stays valid for the life of w.
func (w *WordIDs) Tokenize(s string) []uint32 {
	if w.ids == nil {
		w.ids = make(map[string]uint32)
	}
	start := len(w.arena)
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
		i = we
	}
	return w.arena[start:len(w.arena):len(w.arena)]
}

// Within reports whether the word-LCS distance of the values a and b
// were tokenized from is at most limit: it agrees with
// WordLCS(va, vb) <= limit for every pair of values and every limit in
// [0, 2]. The distance is D / max(len(a), len(b)), where
// D = len(a) + len(b) − 2·|LCS| is exactly Myers' edit distance, so the
// search stops as soon as D provably exceeds limit·max — O((n+m)·limit·max)
// work instead of the O((n+m)·D) of a full computation, a large saving
// on the dissimilar pairs that dominate matching.
func (w *WordIDs) Within(a, b []uint32, limit float64) bool {
	if len(a) == 0 && len(b) == 0 {
		return limit >= 0
	}
	if len(a) == 0 || len(b) == 0 {
		return MaxDistance <= limit
	}
	// D ≤ limit·maxLen, with a nudge so exact threshold products that
	// round just below an integer still admit it (D is integral).
	maxD := int(limit*float64(max(len(a), len(b))) + 1e-9)
	// A common prefix or suffix is part of some LCS, so stripping it
	// leaves D unchanged and shrinks the search to the edited middle.
	for len(a) > 0 && len(b) > 0 && a[0] == b[0] {
		a, b = a[1:], b[1:]
	}
	for len(a) > 0 && len(b) > 0 && a[len(a)-1] == b[len(b)-1] {
		a, b = a[:len(a)-1], b[:len(b)-1]
	}
	_, ok := lcs.DistanceWithin(a, b, maxD, &w.scratch)
	return ok
}
