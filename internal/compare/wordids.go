package compare

import (
	"math"
	"math/bits"
	"strings"
	"sync/atomic"
	"unicode"
	"unicode/utf8"

	"ladiff/internal/lcs"
)

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts; bytes of
// 0x80 and above are false.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// IsASCIISpace reports whether c is an ASCII white-space byte, one of
// "\t\n\v\f\r ". It is false for every byte of 0x80 and above.
func IsASCIISpace(c byte) bool { return asciiSpace[c] }

// SpaceAt reports whether the rune starting at byte i of s is white
// space, and its width in bytes. White space is what unicode.IsSpace
// accepts, as in strings.Fields; an invalid UTF-8 byte is a one-byte
// rune that is not space.
func SpaceAt(s string, i int) (space bool, width int) {
	if c := s[i]; c < utf8.RuneSelf {
		return asciiSpace[c], 1
	}
	return spaceRune(s, i)
}

// TrimSpaceRight returns s without its trailing white space.
func TrimSpaceRight(s string) string {
	return strings.TrimRightFunc(s, unicode.IsSpace)
}

// spaceRune reports whether the rune starting at byte i of s, a
// non-ASCII lead byte, is white space, and its width in bytes. An invalid
// UTF-8 byte decodes as a one-byte U+FFFD, which is not space, as in
// strings.Fields.
func spaceRune(s string, i int) (bool, int) {
	r, w := utf8.DecodeRuneInString(s[i:])
	return unicode.IsSpace(r), w
}

// SkipSpace returns the index of the first byte at or after i that
// starts a word of s, or len(s) when only white space remains. White
// space is what unicode.IsSpace accepts, as in strings.Fields; an invalid
// UTF-8 byte is not space.
func SkipSpace(s string, i int) int {
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if !asciiSpace[c] {
				return i
			}
			i++
			continue
		}
		space, w := spaceRune(s, i)
		if !space {
			return i
		}
		i += w
	}
	return i
}

// WordEnd returns the index one past the word of s that covers byte i:
// the first white space at or after i, or len(s).
func WordEnd(s string, i int) int {
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if asciiSpace[c] {
				return i
			}
			i++
			continue
		}
		space, w := spaceRune(s, i)
		if space {
			return i
		}
		i += w
	}
	return i
}

// NextWord returns the byte span [start, end) of the first word of s at
// or after byte i. Words are those of Words (strings.Fields): maximal
// runs of runes that unicode.IsSpace rejects. When no word remains,
// start == end == len(s).
func NextWord(s string, i int) (start, end int) {
	start = SkipSpace(s, i)
	return start, WordEnd(s, start)
}

// FNV-1a 64 parameters, as in hash/fnv.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// bagBit returns the signature bit of a word whose FNV-1a 64 hash is h:
// the top 6 bits of h times 2^64/φ. FNV-1a's own top bits depend mostly
// on a word's first bytes, and words that share a prefix would share a
// bit; the multiply spreads every input bit over the top six.
func bagBit(h uint64) uint64 {
	return 1 << ((h * 0x9E3779B97F4A7C15) >> 58)
}

// Sig is what the Criterion 1 kernel knows about a value before any
// interning: its word count N and its 64-bit word-bag signature Bag, in
// which each word sets the bit its bytes hash to. Equal words set equal
// bits, so a bit set in one signature and clear in another marks words of
// the first value that occur nowhere in the second.
//
// Once WordIDs.Within has needed the value's word IDs, the Sig also
// records which WordIDs interned them and where they sit in its arena.
// A Sig is reused only with that WordIDs: Within panics when it is given
// a Sig another WordIDs interned. The zero Sig is "not yet computed"
// (Done is false); a matcher caches Sigs per node and fills them on
// first use.
type Sig struct {
	Bag uint64
	N   int32
	// end is one past the value's word IDs in the owner's arena, or 0
	// while the value is not interned (a value that is interned has a
	// word).
	end int32
	// owner is the tag of the WordIDs that interned the value.
	owner uint32
	// Done is true in every Sig that Signature returns.
	Done bool
}

// Signature returns the word count and word-bag signature of s in one
// scan over its bytes, with the word boundaries of Words, without
// interning or allocating.
func Signature(s string) Sig {
	var bag uint64
	n := 0
	for i := SkipSpace(s, 0); i < len(s); i = SkipSpace(s, i) {
		h := uint64(fnvOffset64)
		for i < len(s) {
			c := s[i]
			if c < utf8.RuneSelf {
				if asciiSpace[c] {
					break
				}
				h = (h ^ uint64(c)) * fnvPrime64
				i++
				continue
			}
			space, w := spaceRune(s, i)
			if space {
				break
			}
			for end := i + w; i < end; i++ {
				h = (h ^ uint64(s[i])) * fnvPrime64
			}
		}
		bag |= bagBit(h)
		n++
	}
	return Sig{Bag: bag, N: int32(n), Done: true}
}

// WordIDs decides the word-LCS threshold test of Matching Criterion 1
// over value signatures, interning the words of the few pairs the
// signatures cannot decide. Interning splits a value once, with the word
// boundaries of Words, into a []uint32 in which equal words carry equal
// IDs, so the Myers search compares integers instead of strings. The
// zero value is ready to use. A WordIDs is not safe for concurrent use.
type WordIDs struct {
	// tag tells this WordIDs' interned Sigs from any other's; 0 until
	// the first value is interned.
	tag uint32
	ids map[string]uint32
	// arena holds the IDs of every interned value, each at the span its
	// Sig records; a slice cut from it stays valid when append moves it.
	arena []uint32
	// scratch is the Myers diagonal array, reused across Within calls.
	scratch []int
}

// wordIDsTags hands out WordIDs tags.
var wordIDsTags atomic.Uint32

// intern returns the word IDs of s, whose signature is sg, interning s
// and recording where its IDs sit in sg on first use.
func (w *WordIDs) intern(s string, sg *Sig) []uint32 {
	if sg.end != 0 && sg.owner != w.tag {
		panic("compare: Sig interned by another WordIDs")
	}
	if sg.end == 0 {
		for w.tag == 0 {
			w.tag = wordIDsTags.Add(1)
		}
		if w.ids == nil {
			w.ids = make(map[string]uint32)
		}
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
		if len(w.arena) > math.MaxInt32 {
			panic("compare: word arena past 2^31 IDs")
		}
		sg.end, sg.owner = int32(len(w.arena)), w.tag
	}
	end := int(sg.end)
	return w.arena[end-int(sg.N) : end : end]
}

// Within reports whether the word-LCS distance of the values a and b,
// whose signatures are sa and sb, is at most limit: it agrees with
// WordLCS(a, b) <= limit for every pair of values and every limit in
// [0, 2]. Decide settles most pairs from the signatures alone. Only the
// pairs it leaves open are interned, on first use per Sig, and run the
// Myers search, which stops as soon as D provably exceeds maxD —
// O((n+m)·maxD) work instead of the O((n+m)·D) of a full computation.
func (w *WordIDs) Within(a, b string, sa, sb *Sig, limit float64) bool {
	if within, decided := Decide(*sa, *sb, limit); decided {
		return within
	}
	x, y := w.intern(a, sa), w.intern(b, sb)
	// A common prefix or suffix is part of some LCS, so stripping it
	// leaves D unchanged and shrinks the search to the edited middle.
	for len(x) > 0 && len(y) > 0 && x[0] == y[0] {
		x, y = x[1:], y[1:]
	}
	for len(x) > 0 && len(y) > 0 && x[len(x)-1] == y[len(y)-1] {
		x, y = x[:len(x)-1], y[:len(y)-1]
	}
	_, ok := lcs.DistanceWithin(x, y, maxDist(limit, int(sa.N), int(sb.N)), &w.scratch)
	return ok
}

// Decide answers the test of Within from the signatures sa and sb alone
// when they settle it, and reports decided = false for the pairs that
// need a Myers search. The distance is D / max(n, m) for word counts
// n = sa.N and m = sb.N, where D = n + m − 2·|LCS| is exactly Myers' edit
// distance, so the question is whether D ≤ maxD = limit·max(n, m).
// Empty values follow WordLCS: two are at distance 0, one is at
// MaxDistance.
//
// Most pairs a matcher tests are unrelated, and the word-bag bound
// rejects them in O(1). Let k = popcount(sa.Bag &^ sb.Bag). Every word of
// a whose bit is clear in sb.Bag occurs nowhere in b, so it is in no LCS,
// and each of the k bits stands for at least one such word of a; hence
// |LCS| ≤ n − k and D ≥ m − n + 2k. The same holds with a and b swapped,
// so L = max(m − n + 2·popcount(sa.Bag &^ sb.Bag),
// n − m + 2·popcount(sb.Bag &^ sa.Bag)) is a lower bound on D, and
// L > maxD decides "no" exactly. The argument needs only that equal
// words set equal bits, so it holds for any map from words to bits; a
// map that spreads distinct words over more bits rejects more pairs.
func Decide(sa, sb Sig, limit float64) (within, decided bool) {
	n, m := int(sa.N), int(sb.N)
	if n == 0 && m == 0 {
		return limit >= 0, true
	}
	if n == 0 || m == 0 {
		return MaxDistance <= limit, true
	}
	onlyA := bits.OnesCount64(sa.Bag &^ sb.Bag)
	onlyB := bits.OnesCount64(sb.Bag &^ sa.Bag)
	if max(m-n+2*onlyA, n-m+2*onlyB) > maxDist(limit, n, m) {
		return false, true
	}
	return false, false
}

// maxDist is the largest Myers distance D within limit for word counts
// n and m: limit·max(n, m), with a nudge so exact threshold products that
// round just below an integer still admit it (D is integral).
func maxDist(limit float64, n, m int) int {
	return int(limit*float64(max(n, m)) + 1e-9)
}
