package lcs

import (
	"math/rand"
	"testing"
)

// referenceDistance computes D = n + m − 2·|LCS| with the quadratic DP.
func referenceDistance(a, b []byte) int {
	eq := func(i, j int) bool { return a[i] == b[j] }
	return len(a) + len(b) - 2*len(IndicesDP(len(a), len(b), eq))
}

func randomBytes(rng *rand.Rand, n, alphabet int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte('a' + rng.Intn(alphabet))
	}
	return out
}

// TestDistanceWithinExact cross-checks DistanceWithin against the DP
// distance on random inputs, for caps below, at, and above the true
// distance. Every search shares one scratch buffer that starts out full
// of garbage, so a stale slot read by any round would show up here.
func TestDistanceWithinExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	buf := make([]int, 64)
	for i := range buf {
		buf[i] = 1 << 20
	}
	for trial := 0; trial < 300; trial++ {
		a := randomBytes(rng, rng.Intn(20), 3)
		b := randomBytes(rng, rng.Intn(20), 3)
		want := referenceDistance(a, b)
		for _, maxD := range []int{0, want - 1, want, want + 1, len(a) + len(b)} {
			if maxD < 0 {
				continue
			}
			for _, scratch := range []*[]int{nil, &buf} {
				d, ok := DistanceWithin(a, b, maxD, scratch)
				if want <= maxD {
					if !ok || d != want {
						t.Fatalf("DistanceWithin(%q, %q, maxD=%d) = (%d, %v), want (%d, true)",
							a, b, maxD, d, ok, want)
					}
				} else if ok {
					t.Fatalf("DistanceWithin(%q, %q, maxD=%d) = (%d, true), want rejection (true distance %d)",
						a, b, maxD, d, want)
				}
			}
		}
	}
}

// TestDistanceWithinEdgeCases exercises the empty-input and zero-cap
// paths, including the maxD=0 window-sizing regression.
func TestDistanceWithinEdgeCases(t *testing.T) {
	five, four := []byte("abcde"), []byte("abcd")
	if d, ok := DistanceWithin([]byte{}, nil, 0, nil); !ok || d != 0 {
		t.Errorf("empty vs empty: got (%d, %v), want (0, true)", d, ok)
	}
	if d, ok := DistanceWithin(nil, five, 5, nil); !ok || d != 5 {
		t.Errorf("empty vs 5: got (%d, %v), want (5, true)", d, ok)
	}
	if _, ok := DistanceWithin(nil, five, 4, nil); ok {
		t.Error("empty vs 5 with cap 4: want rejection")
	}
	// maxD = 0 with equal sequences must succeed in round 0 (this used to
	// index out of the v window before head-room was added).
	if d, ok := DistanceWithin(four, four, 0, nil); !ok || d != 0 {
		t.Errorf("identical with cap 0: got (%d, %v), want (0, true)", d, ok)
	}
	if _, ok := DistanceWithin(four, []byte("wxyz"), 0, nil); ok {
		t.Error("disjoint with cap 0: want rejection")
	}
	// Length difference alone exceeds the cap: rejected before searching.
	if _, ok := DistanceWithin([]byte("aaaaaaaaaa"), []byte("aaa"), 5, nil); ok {
		t.Error("|n-m| = 7 > cap 5: want rejection")
	}
	// An over-large cap is clamped, not trusted.
	if d, ok := DistanceWithin([]byte("ab"), []byte("cd"), 1000, nil); !ok || d != 4 {
		t.Errorf("disjoint with huge cap: got (%d, %v), want (4, true)", d, ok)
	}
}

// TestLengthMatchesDP cross-checks the forward-only length pass against
// the DP reference.
func TestLengthMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		a := randomBytes(rng, rng.Intn(30), 4)
		b := randomBytes(rng, rng.Intn(30), 4)
		eq := func(i, j int) bool { return a[i] == b[j] }
		want := len(IndicesDP(len(a), len(b), eq))
		if got := Length(a, b); got != want {
			t.Fatalf("Length(%q, %q) = %d, want %d", a, b, got, want)
		}
	}
}

// TestIndicesLongSimilarInputs runs the windowed-trace Indices on long
// inputs with small D, where the old full-array-per-round trace would
// allocate O(D·(n+m)); here it checks correctness of the windowed
// backtrack on a size that matters.
func TestIndicesLongSimilarInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 5000
	a := make([]byte, n)
	for i := range a {
		a[i] = byte('a' + i%26)
	}
	b := append([]byte(nil), a...)
	// A handful of scattered edits keeps D small relative to n.
	for i := 0; i < 8; i++ {
		b[rng.Intn(n)] = 'Z'
	}
	eq := func(i, j int) bool { return a[i] == b[j] }
	got := Indices(n, n, eq)
	want := 2*n - referenceDistanceLarge(a, b)
	if 2*len(got) != want {
		t.Fatalf("Indices on long input: LCS length %d, want %d", len(got), want/2)
	}
	// The returned pairs must be strictly increasing and genuinely equal.
	for i, p := range got {
		if a[p.A] != b[p.B] {
			t.Fatalf("pair %d: a[%d]=%q != b[%d]=%q", i, p.A, a[p.A], p.B, b[p.B])
		}
		if i > 0 && (p.A <= got[i-1].A || p.B <= got[i-1].B) {
			t.Fatalf("pair %d not strictly increasing: %v after %v", i, p, got[i-1])
		}
	}
}

// referenceDistanceLarge avoids the O(nm) DP for the long-input test by
// using the (already cross-checked) forward pass.
func referenceDistanceLarge(a, b []byte) int {
	d, ok := DistanceWithin(a, b, len(a)+len(b), nil)
	if !ok {
		panic("unreachable")
	}
	return d
}
