package lcs

import (
	"math/rand"
	"reflect"
	"testing"
)

// indicesReference is Indices as it stood before the d = 0 snake moved
// ahead of the allocations: every round, round 0 included, runs inside
// the one loop. It is the oracle for the equal-call sequence, which
// callers count (AlignChildren's AlignEquals, FastMatch's r1/r2) and so
// must not change.
func indicesReference(n, m int, equal func(i, j int) bool) []IndexPair {
	if n == 0 || m == 0 {
		return nil
	}
	maxD := n + m
	offset := maxD
	v := make([]int, 2*maxD+1)
	var trace [][]int
	var dFinal = -1
outer:
	for d := 0; d <= maxD; d++ {
		snapshot := make([]int, 2*d+1)
		copy(snapshot, v[offset-d:offset+d+1])
		trace = append(trace, snapshot)
		for k := -d; k <= d; k += 2 {
			var x int
			if k == -d || (k != d && v[k-1+offset] < v[k+1+offset]) {
				x = v[k+1+offset]
			} else {
				x = v[k-1+offset] + 1
			}
			y := x - k
			for x < n && y < m && equal(x, y) {
				x++
				y++
			}
			v[k+offset] = x
			if x >= n && y >= m {
				dFinal = d
				break outer
			}
		}
	}
	var rev []IndexPair
	x, y := n, m
	for d := dFinal; d > 0; d-- {
		prev := trace[d]
		k := x - y
		var prevK int
		if k == -d || (k != d && prev[k-1+d] < prev[k+1+d]) {
			prevK = k + 1
		} else {
			prevK = k - 1
		}
		prevX := prev[prevK+d]
		prevY := prevX - prevK
		var sx, sy int
		if prevK == k+1 {
			sx, sy = prevX, prevY+1
		} else {
			sx, sy = prevX+1, prevY
		}
		for x > sx || y > sy {
			rev = append(rev, IndexPair{A: x - 1, B: y - 1})
			x--
			y--
		}
		x, y = prevX, prevY
	}
	for x > 0 && y > 0 {
		rev = append(rev, IndexPair{A: x - 1, B: y - 1})
		x--
		y--
	}
	out := make([]IndexPair, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// TestIndicesEarlyExitKeepsCallSequence: the d = 0 early exit makes the
// same equal calls, in the same order, and returns the same pairs as the
// single-loop search, on seeded random inputs and on aligned ones
// (equal sequences, equal prefixes, one sequence a prefix of the other).
func TestIndicesEarlyExitKeepsCallSequence(t *testing.T) {
	type call struct{ i, j int }
	run := func(f func(int, int, func(int, int) bool) []IndexPair, a, b string) ([]IndexPair, []call) {
		var calls []call
		pairs := f(len(a), len(b), func(i, j int) bool {
			calls = append(calls, call{i, j})
			return a[i] == b[j]
		})
		return pairs, calls
	}
	check := func(a, b string) {
		t.Helper()
		gotPairs, gotCalls := run(Indices, a, b)
		wantPairs, wantCalls := run(indicesReference, a, b)
		if !reflect.DeepEqual(gotPairs, wantPairs) {
			t.Fatalf("Indices(%q,%q) pairs = %v, reference %v", a, b, gotPairs, wantPairs)
		}
		if !reflect.DeepEqual(gotCalls, wantCalls) {
			t.Fatalf("Indices(%q,%q) made %d equal calls %v, reference %d %v",
				a, b, len(gotCalls), gotCalls, len(wantCalls), wantCalls)
		}
	}
	rng := rand.New(rand.NewSource(7))
	alphabets := []string{"a", "ab", "abc", "abcdefgh"}
	for trial := 0; trial < 2000; trial++ {
		alpha := alphabets[trial%len(alphabets)]
		a := randString(rng, alpha, rng.Intn(25))
		b := randString(rng, alpha, rng.Intn(25))
		check(a, b)
		// Aligned shapes: identical, shared prefix, prefix of the other.
		check(a, a)
		if len(a) > 0 {
			cut := rng.Intn(len(a))
			check(a, a[:cut]+b)
			check(a[:cut], a)
			check(a, a[:cut])
		}
	}
}
