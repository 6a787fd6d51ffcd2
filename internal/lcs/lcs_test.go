package lcs

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func runesOf(s string) []string { return strings.Split(s, "") }

func lcsOf(a, b string) []Pair[string, string] {
	return Pairs(runesOf(a), runesOf(b), func(x, y string) bool { return x == y })
}

func joinFirsts(pairs []Pair[string, string]) string {
	var sb strings.Builder
	for _, p := range pairs {
		sb.WriteString(p.First)
	}
	return sb.String()
}

func TestKnownLCS(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 0},
		{"", "abc", 0},
		{"abc", "abc", 3},
		{"abc", "def", 0},
		{"abcbdab", "bdcaba", 4},
		{"xmjyauz", "mzjawxu", 4},
		{"human", "chimpanzee", 4},
		{"abcdefg", "bdfg", 4},
		{"aaaa", "aa", 2},
		{"ab", "ba", 1},
	}
	for _, c := range cases {
		got := lcsOf(c.a, c.b)
		if len(got) != c.want {
			t.Errorf("LCS(%q,%q) length = %d (%q), want %d", c.a, c.b, len(got), joinFirsts(got), c.want)
		}
	}
}

// checkCommonSubsequence verifies the three structural properties of §4.2:
// firsts form a subsequence of a, seconds of b, and every pair is equal.
func checkCommonSubsequence(t *testing.T, a, b string, pairs []IndexPair) {
	t.Helper()
	prevA, prevB := -1, -1
	for _, p := range pairs {
		if p.A <= prevA || p.B <= prevB {
			t.Fatalf("LCS(%q,%q): indices not strictly increasing: %v", a, b, pairs)
		}
		if a[p.A] != b[p.B] {
			t.Fatalf("LCS(%q,%q): unequal pair %v", a, b, p)
		}
		prevA, prevB = p.A, p.B
	}
}

func TestMyersMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alphabets := []string{"ab", "abc", "abcdefgh"}
	for trial := 0; trial < 500; trial++ {
		alpha := alphabets[trial%len(alphabets)]
		n, m := rng.Intn(30), rng.Intn(30)
		a := randString(rng, alpha, n)
		b := randString(rng, alpha, m)
		eq := func(i, j int) bool { return a[i] == b[j] }
		myers := Indices(len(a), len(b), eq)
		dp := IndicesDP(len(a), len(b), eq)
		if len(myers) != len(dp) {
			t.Fatalf("LCS(%q,%q): Myers length %d != DP length %d", a, b, len(myers), len(dp))
		}
		checkCommonSubsequence(t, a, b, myers)
		checkCommonSubsequence(t, a, b, dp)
	}
}

func randString(rng *rand.Rand, alphabet string, n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
	}
	return sb.String()
}

func TestQuickMyersProperties(t *testing.T) {
	f := func(ra, rb []byte) bool {
		a := make([]byte, 0, len(ra))
		for _, c := range ra {
			a = append(a, 'a'+c%4)
		}
		b := make([]byte, 0, len(rb))
		for _, c := range rb {
			b = append(b, 'a'+c%4)
		}
		eq := func(i, j int) bool { return a[i] == b[j] }
		myers := Indices(len(a), len(b), eq)
		dp := IndicesDP(len(a), len(b), eq)
		if len(myers) != len(dp) {
			return false
		}
		prevA, prevB := -1, -1
		for _, p := range myers {
			if p.A <= prevA || p.B <= prevB || a[p.A] != b[p.B] {
				return false
			}
			prevA, prevB = p.A, p.B
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestLengthAndPairsAgree(t *testing.T) {
	a := strings.Fields("the quick brown fox jumps over the lazy dog")
	b := strings.Fields("the brown dog jumps over the quick fox")
	eq := func(x, y string) bool { return x == y }
	if got, want := Length(a, b), len(Pairs(a, b, eq)); got != want {
		t.Fatalf("Length = %d, Pairs = %d", got, want)
	}
}

func TestLengthStrings(t *testing.T) {
	a := strings.Fields("a b c d")
	b := strings.Fields("b c d e")
	if got := Length(a, b); got != 3 {
		t.Fatalf("Length = %d, want 3", got)
	}
}

func TestCustomEqualityPredicate(t *testing.T) {
	// The paper's use requires arbitrary equality, e.g. approximate
	// matching. Here: equality modulo case.
	a := []string{"Alpha", "beta", "GAMMA"}
	b := []string{"alpha", "BETA", "delta"}
	eq := func(x, y string) bool { return strings.EqualFold(x, y) }
	got := Pairs(a, b, eq)
	if len(got) != 2 || got[0].First != "Alpha" || got[1].Second != "BETA" {
		t.Fatalf("case-insensitive LCS = %v", got)
	}
}

func TestIdenticalSequencesLinearTime(t *testing.T) {
	// D = 0 for identical sequences: one pass, everything matched.
	n := 10000
	calls := 0
	eq := func(i, j int) bool { calls++; return true }
	got := Indices(n, n, eq)
	if len(got) != n {
		t.Fatalf("identical sequences: LCS = %d, want %d", len(got), n)
	}
	if calls > 2*n {
		t.Fatalf("identical sequences took %d equality calls, want O(n)", calls)
	}
}

func BenchmarkMyersSimilar(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	base := make([]int, 5000)
	for i := range base {
		base[i] = i
	}
	other := append([]int(nil), base...)
	// 1% perturbation.
	for i := 0; i < 50; i++ {
		other[rng.Intn(len(other))] = -1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Indices(len(base), len(other), func(x, y int) bool { return base[x] == other[y] })
	}
}

func BenchmarkDPSimilar(b *testing.B) {
	base := make([]int, 1000)
	for i := range base {
		base[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IndicesDP(len(base), len(base), func(x, y int) bool { return base[x] == base[y] })
	}
}
