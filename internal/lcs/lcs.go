// Package lcs computes longest common subsequences with a caller-supplied
// equality predicate, as required by Algorithm EditScript's AlignChildren
// and Algorithm FastMatch (Chawathe et al., SIGMOD 1996, §4.2 and §5.3).
//
// The primary implementation is Myers' O(ND) greedy algorithm [Mye86],
// which the paper uses and which — unlike the hashing-based LCS in the
// standard UNIX diff — needs only equality comparisons (§7). A quadratic
// dynamic-programming reference implementation is provided for
// cross-checking in tests and for pathological inputs where D approaches
// N. The forward-only pass behind Length and DistanceWithin, which the
// word-LCS comparer runs for every leaf compare, takes comparable slices
// and compares elements with == instead of calling a predicate.
package lcs

// Pair couples an element of the first sequence with the element of the
// second sequence it was matched to, in the order defined in §4.2: the
// firsts form a subsequence of S1, the seconds a subsequence of S2, and
// equal(first, second) holds for every pair.
type Pair[A, B any] struct {
	First  A
	Second B
}

// IndexPair records positions of one matched pair: A is an index into the
// first sequence, B into the second.
type IndexPair struct {
	A, B int
}

// Pairs returns an LCS of a and b under equal, as matched element pairs.
func Pairs[A, B any](a []A, b []B, equal func(A, B) bool) []Pair[A, B] {
	idx := Indices(len(a), len(b), func(i, j int) bool { return equal(a[i], b[j]) })
	out := make([]Pair[A, B], len(idx))
	for i, p := range idx {
		out[i] = Pair[A, B]{First: a[p.A], Second: b[p.B]}
	}
	return out
}

// Length returns the length of an LCS of a and b under ==. It runs the
// forward pass only — no trace, no backtracking — so it allocates O(n+m)
// and is the right call when the matched pairs themselves are not needed
// (e.g. the word-LCS distance of the sentence comparer). Myers' relation
// D = n + m − 2·|LCS| recovers the length from the first round that
// reaches (n,m).
func Length[T comparable](a, b []T) int {
	d, ok := DistanceWithin(a, b, len(a)+len(b), nil)
	if !ok {
		// Unreachable: d = n+m always suffices.
		panic("lcs: Myers search did not terminate")
	}
	return (len(a) + len(b) - d) / 2
}

// DistanceWithin runs the forward Myers search over a and b with the
// d-rounds capped at maxD. It returns the edit distance
// D = len(a) + len(b) − 2·|LCS| and true when D ≤ maxD, or (0, false)
// when the distance exceeds the cap — after only O((n+m)·maxD) work
// instead of the O((n+m)·D) a full search would spend. Callers that test
// a similarity threshold rather than needing the exact distance
// (Matching Criterion 1 does exactly that) use the cap to reject
// dissimilar pairs early.
//
// buf, when non-nil, is a reusable diagonal array: it is grown as needed
// and left holding the grown slice, so a caller running many searches
// allocates only while the largest cap seen so far grows. Its contents
// on entry do not matter.
func DistanceWithin[T comparable](a, b []T, maxD int, buf *[]int) (int, bool) {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		d := n + m
		if d > maxD {
			return 0, false
		}
		return d, true
	}
	// D ≥ |n−m|: the cap is unreachable without entering the search.
	if diff := n - m; diff > maxD || -diff > maxD {
		return 0, false
	}
	if maxD > n+m {
		maxD = n + m
	}
	// One slot of head-room on each side: round d reads diagonals k±1
	// for k ∈ [-d, d], so the window spans [-maxD−1, maxD+1].
	offset := maxD + 1
	if buf == nil {
		buf = new([]int)
	}
	if cap(*buf) < 2*maxD+3 {
		*buf = make([]int, 2*maxD+3)
	}
	v := (*buf)[:2*maxD+3]
	// Round 0 reads only diagonal 1; every later round reads only
	// diagonals the previous round wrote, so no other slot needs
	// clearing.
	v[1+offset] = 0
	for d := 0; d <= maxD; d++ {
		for k := -d; k <= d; k += 2 {
			var x int
			if k == -d || (k != d && v[k-1+offset] < v[k+1+offset]) {
				x = v[k+1+offset] // move down (insert from b)
			} else {
				x = v[k-1+offset] + 1 // move right (delete from a)
			}
			y := x - k
			for x < n && y < m && a[x] == b[y] {
				x++
				y++
			}
			v[k+offset] = x
			if x >= n && y >= m {
				return d, true
			}
		}
	}
	return 0, false
}

// Indices computes an LCS of the index ranges [0,n) and [0,m) under the
// positional equality predicate, returning matched index pairs in
// increasing order. It runs Myers' greedy algorithm in O((n+m)·D) time
// and O(D²) space, where D = n + m − 2·|LCS|.
func Indices(n, m int, equal func(i, j int) bool) []IndexPair {
	if n == 0 || m == 0 {
		return nil
	}
	maxD := n + m
	// v[k+offset] is the furthest x on diagonal k after the current
	// d-round. trace keeps, per round, a snapshot of only the active
	// diagonal window [-d, d] as it stood entering the round (round d−1
	// wrote at most diagonals ±(d−1), and the backtrack for round d reads
	// only diagonals within ±d), so total trace space is O(D²) instead of
	// the O(D·(n+m)) a full-array snapshot per round would cost.
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
				x = v[k+1+offset] // move down (insert from b)
			} else {
				x = v[k-1+offset] + 1 // move right (delete from a)
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
	if dFinal < 0 {
		// Unreachable: d = n+m always suffices.
		panic("lcs: Myers search did not terminate")
	}

	// Backtrack through the per-round snapshots, collecting the diagonal
	// (snake) steps, which are exactly the LCS matches. trace[d] holds the
	// active window of the v-array as it stood entering round d — the
	// values round d read — indexed by k+d for diagonal k ∈ [-d, d].
	var rev []IndexPair
	x, y := n, m
	for d := dFinal; d > 0; d-- {
		prev := trace[d]
		k := x - y
		var prevK int
		if k == -d || (k != d && prev[k-1+d] < prev[k+1+d]) {
			prevK = k + 1 // reached via a down-move (element of b skipped)
		} else {
			prevK = k - 1 // reached via a right-move (element of a skipped)
		}
		prevX := prev[prevK+d]
		prevY := prevX - prevK
		// Position immediately after round d's single non-diagonal step:
		var sx, sy int
		if prevK == k+1 {
			sx, sy = prevX, prevY+1
		} else {
			sx, sy = prevX+1, prevY
		}
		// The snake from (sx,sy) to (x,y) is all matches.
		for x > sx || y > sy {
			rev = append(rev, IndexPair{A: x - 1, B: y - 1})
			x--
			y--
		}
		x, y = prevX, prevY
	}
	// d == 0: the remaining prefix is one pure snake back to the origin.
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

// IndicesDP is a quadratic dynamic-programming LCS used as a correctness
// reference for Indices and for callers that prefer predictable O(nm)
// behaviour on tiny inputs.
func IndicesDP(n, m int, equal func(i, j int) bool) []IndexPair {
	if n == 0 || m == 0 {
		return nil
	}
	// dp[i][j] = LCS length of a[i:], b[j:].
	dp := make([][]int, n+1)
	for i := range dp {
		dp[i] = make([]int, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if equal(i, j) {
				dp[i][j] = dp[i+1][j+1] + 1
			} else if dp[i+1][j] >= dp[i][j+1] {
				dp[i][j] = dp[i+1][j]
			} else {
				dp[i][j] = dp[i][j+1]
			}
		}
	}
	var out []IndexPair
	i, j := 0, 0
	for i < n && j < m {
		switch {
		case equal(i, j):
			out = append(out, IndexPair{A: i, B: j})
			i++
			j++
		case dp[i+1][j] >= dp[i][j+1]:
			i++
		default:
			j++
		}
	}
	return out
}
