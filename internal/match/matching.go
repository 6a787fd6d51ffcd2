// Package match implements the Good Matching problem of Chawathe et al.
// (SIGMOD 1996, §5): finding a partial one-to-one correspondence between
// the nodes of an old tree T1 and a new tree T2, without assuming object
// identifiers.
//
// Two algorithms are provided. Match (Figure 10) compares every unmatched
// node against every candidate with the same label, in O(n²c + mn) time
// (Appendix B). FastMatch (Figure 11) first aligns the left-to-right
// chains of same-labeled nodes with Myers' LCS, then falls back to Match
// for the leftovers, giving O((ne+e²)c + 2lne) where e is the weighted
// edit distance — far cheaper when the trees are similar. Both enforce
// Matching Criteria 1 and 2; under Criterion 3 and acyclic labels the
// result is the unique maximal matching (Theorem 5.2).
package match

import (
	"fmt"

	"ladiff/internal/tree"
)

// Matching is a partial one-to-one correspondence between node IDs of an
// old tree and a new tree. It is stored densely: two slices indexed by
// NodeID, where 0 means unmatched, so every lookup is one bounds-checked
// load. The zero value is an empty matching, ready to use; Reserve sizes
// it for a pair of trees up front.
type Matching struct {
	fwd []tree.NodeID // old -> new
	rev []tree.NodeID // new -> old
	n   int
}

// NewMatching returns an empty matching.
func NewMatching() *Matching { return &Matching{} }

// Reserve sizes m to hold every node ID of t1 (the old side) and t2
// (the new side) without growing, and lifts the Add bound to match.
func (m *Matching) Reserve(t1, t2 *tree.Tree) {
	m.fwd = grow(m.fwd, t1.MaxID())
	m.rev = grow(m.rev, t2.MaxID())
}

// grow returns s extended to cover index id.
func grow(s []tree.NodeID, id tree.NodeID) []tree.NodeID {
	if need := int(id) + 1; need > len(s) {
		s = append(s, make([]tree.NodeID, need-len(s))...)
	}
	return s
}

// partner returns s[id], or 0 when id lies outside s.
func partner(s []tree.NodeID, id tree.NodeID) tree.NodeID {
	if id <= 0 || id >= tree.NodeID(len(s)) {
		return 0
	}
	return s[id]
}

// checkID rejects an ID that is non-positive, or that would grow s by
// more than one slot while lying more than tree.MaxIDGap past the pair
// count: the tables are slices indexed by ID, so an unbounded ID would
// be an unbounded allocation.
func (m *Matching) checkID(side string, s []tree.NodeID, id tree.NodeID) error {
	if id <= 0 {
		return fmt.Errorf("match: %s node ID %d is not positive", side, id)
	}
	if id > tree.NodeID(len(s)) && id > tree.NodeID(m.n)+tree.MaxIDGap {
		return fmt.Errorf("match: %s node ID %d out of bounds (%d pairs, gap %d; Reserve sizes for larger trees)",
			side, id, m.n, tree.MaxIDGap)
	}
	return nil
}

// Add records that old node x corresponds to new node y. It returns an
// error if either node is already matched, preserving the one-to-one
// property, or if either ID is out of bounds (see checkID).
func (m *Matching) Add(x, y tree.NodeID) error {
	if err := m.checkID("old", m.fwd, x); err != nil {
		return err
	}
	if err := m.checkID("new", m.rev, y); err != nil {
		return err
	}
	if prev := partner(m.fwd, x); prev != 0 {
		return fmt.Errorf("match: old node %d already matched to %d", x, prev)
	}
	if prev := partner(m.rev, y); prev != 0 {
		return fmt.Errorf("match: new node %d already matched to %d", y, prev)
	}
	m.fwd = grow(m.fwd, x)
	m.rev = grow(m.rev, y)
	m.fwd[x] = y
	m.rev[y] = x
	m.n++
	return nil
}

// Remove deletes the pair involving old node x, if present.
func (m *Matching) Remove(x tree.NodeID) {
	if y := partner(m.fwd, x); y != 0 {
		m.fwd[x] = 0
		m.rev[y] = 0
		m.n--
	}
}

// ToNew returns the partner of old node x, if any.
func (m *Matching) ToNew(x tree.NodeID) (tree.NodeID, bool) {
	y := partner(m.fwd, x)
	return y, y != 0
}

// ToOld returns the partner of new node y, if any.
func (m *Matching) ToOld(y tree.NodeID) (tree.NodeID, bool) {
	x := partner(m.rev, y)
	return x, x != 0
}

// Has reports whether the pair (x, y) is in the matching.
func (m *Matching) Has(x, y tree.NodeID) bool {
	return y != 0 && partner(m.fwd, x) == y
}

// MatchedOld reports whether old node x participates in the matching.
func (m *Matching) MatchedOld(x tree.NodeID) bool { return partner(m.fwd, x) != 0 }

// MatchedNew reports whether new node y participates in the matching.
func (m *Matching) MatchedNew(y tree.NodeID) bool { return partner(m.rev, y) != 0 }

// Len returns the number of matched pairs.
func (m *Matching) Len() int { return m.n }

// Pair is one (old, new) correspondence.
type Pair struct {
	Old, New tree.NodeID
}

// Pairs returns all pairs in ascending old node ID order, for
// deterministic iteration and display.
func (m *Matching) Pairs() []Pair {
	out := make([]Pair, 0, m.n)
	for x, y := range m.fwd {
		if y != 0 {
			out = append(out, Pair{Old: tree.NodeID(x), New: y})
		}
	}
	return out
}

// Clone returns an independent copy of the matching.
func (m *Matching) Clone() *Matching {
	return &Matching{
		fwd: append([]tree.NodeID(nil), m.fwd...),
		rev: append([]tree.NodeID(nil), m.rev...),
		n:   m.n,
	}
}

// Contains reports whether every pair of m is also in other.
func (m *Matching) Contains(other *Matching) bool {
	for x, y := range other.fwd {
		if y != 0 && partner(m.fwd, tree.NodeID(x)) != y {
			return false
		}
	}
	return true
}

// Validate checks that the matching is a bijection between nodes that
// exist in t1 and t2 respectively and that matched pairs share labels.
func (m *Matching) Validate(t1, t2 *tree.Tree) error {
	nfwd, nrev := 0, 0
	for _, x := range m.rev {
		if x != 0 {
			nrev++
		}
	}
	for i, y := range m.fwd {
		if y == 0 {
			continue
		}
		nfwd++
		x := tree.NodeID(i)
		nx, ny := t1.Node(x), t2.Node(y)
		if nx == nil {
			return fmt.Errorf("match: old node %d not in old tree", x)
		}
		if ny == nil {
			return fmt.Errorf("match: new node %d not in new tree", y)
		}
		if partner(m.rev, y) != x {
			return fmt.Errorf("match: pair (%d,%d) missing reverse entry", x, y)
		}
		if nx.Label() != ny.Label() {
			return fmt.Errorf("match: pair (%v,%v) has differing labels", nx, ny)
		}
	}
	if nfwd != m.n || nrev != m.n {
		return fmt.Errorf("match: %d pairs but %d forward and %d reverse entries", m.n, nfwd, nrev)
	}
	return nil
}
