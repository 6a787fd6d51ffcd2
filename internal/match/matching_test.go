package match_test

import (
	"fmt"
	"math/rand"
	"testing"

	. "ladiff/internal/match"
	"ladiff/internal/tree"
)

// TestMatchingDenseInterleaved: after every step of a seeded
// interleaving of Add and Remove — over IDs spread wide enough that the
// slices grow mid-run — Pairs() comes out in strictly ascending old-ID
// order, lists exactly the model's pairs, and Len is exact.
func TestMatchingDenseInterleaved(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			var m Matching // the zero value is ready to use
			fwd := map[tree.NodeID]tree.NodeID{}
			rev := map[tree.NodeID]tree.NodeID{}
			span := 1 + rng.Intn(500)
			for step := 0; step < 400; step++ {
				x := tree.NodeID(1 + rng.Intn(span))
				y := tree.NodeID(1 + rng.Intn(span))
				if rng.Intn(3) == 0 {
					m.Remove(x)
					if y0, ok := fwd[x]; ok {
						delete(fwd, x)
						delete(rev, y0)
					}
				} else {
					_, xBusy := fwd[x]
					_, yBusy := rev[y]
					err := m.Add(x, y)
					if (err == nil) == (xBusy || yBusy) {
						t.Fatalf("step %d: Add(%d,%d) err = %v, busy %v/%v", step, x, y, err, xBusy, yBusy)
					}
					if err == nil {
						fwd[x], rev[y] = y, x
					}
				}
				if m.Len() != len(fwd) {
					t.Fatalf("step %d: Len = %d, model %d", step, m.Len(), len(fwd))
				}
				pairs := m.Pairs()
				if len(pairs) != len(fwd) {
					t.Fatalf("step %d: %d pairs, model %d", step, len(pairs), len(fwd))
				}
				for i, p := range pairs {
					if i > 0 && pairs[i-1].Old >= p.Old {
						t.Fatalf("step %d: Pairs not ascending at %d: %v", step, i, pairs)
					}
					if fwd[p.Old] != p.New {
						t.Fatalf("step %d: pair %v not in model", step, p)
					}
				}
			}
		})
	}
}

// TestMatchingZeroValue: every query on a zero Matching answers
// "unmatched", for any ID including non-positive ones, and Clone and
// Contains work on it.
func TestMatchingZeroValue(t *testing.T) {
	var m Matching
	for _, id := range []tree.NodeID{-1, 0, 1, 1 << 40} {
		if m.MatchedOld(id) || m.MatchedNew(id) || m.Has(id, 1) {
			t.Fatalf("zero Matching reports %d matched", id)
		}
		if _, ok := m.ToNew(id); ok {
			t.Fatalf("zero Matching ToNew(%d) ok", id)
		}
		if _, ok := m.ToOld(id); ok {
			t.Fatalf("zero Matching ToOld(%d) ok", id)
		}
	}
	m.Remove(3)
	if m.Len() != 0 || len(m.Pairs()) != 0 || m.Clone().Len() != 0 || !m.Contains(&Matching{}) {
		t.Fatal("zero Matching is not empty")
	}
	if err := m.Add(2, 3); err != nil || !m.Has(2, 3) || m.Has(2, 0) {
		t.Fatalf("Add on zero Matching: %v", err)
	}
}

// TestMatchingAddBounds: non-positive IDs, and IDs that would grow the
// matching by more than one slot while lying more than tree.MaxIDGap
// past its pair count, are rejected, leaving the matching unchanged;
// Reserve lifts the bound to the trees' ID range.
func TestMatchingAddBounds(t *testing.T) {
	m := NewMatching()
	bad := [][2]tree.NodeID{
		{0, 1}, {1, 0}, {-5, 1}, {1, -5},
		{tree.MaxIDGap + 1, 1}, {1, tree.MaxIDGap + 1},
		{1 << 40, 1}, {1, 1 << 40}, {1<<63 - 1, 1<<63 - 1},
	}
	for _, p := range bad {
		if err := m.Add(p[0], p[1]); err == nil {
			t.Fatalf("Add(%d,%d) accepted", p[0], p[1])
		}
	}
	if m.Len() != 0 {
		t.Fatalf("rejected Adds left %d pairs", m.Len())
	}
	// The largest admissible IDs on an empty matching; the bound then
	// moves with the pair count, not with the IDs, so it cannot be
	// stepped up gap by gap — but extending by one slot always works.
	if err := m.Add(tree.MaxIDGap, tree.MaxIDGap); err != nil {
		t.Fatalf("Add at the bound: %v", err)
	}
	if err := m.Add(2*tree.MaxIDGap, 1); err == nil {
		t.Fatal("second gap-sized step accepted")
	}
	if err := m.Add(tree.MaxIDGap+1, tree.MaxIDGap+1); err != nil {
		t.Fatalf("Add one past the covered range: %v", err)
	}
	// Reserve covers every ID of the trees, however large.
	big := tree.NewWithRoot("r", "")
	for big.MaxID() < 3*tree.MaxIDGap {
		big.AppendChild(big.Root(), "x", "")
	}
	r := NewMatching()
	if err := r.Add(big.MaxID(), 1); err == nil {
		t.Fatal("unreserved Add far past the bound accepted")
	}
	r.Reserve(big, big)
	if err := r.Add(big.MaxID(), big.MaxID()); err != nil {
		t.Fatalf("Add after Reserve: %v", err)
	}
}
