package core

import (
	"context"

	"ladiff/internal/match"
	"ladiff/internal/obs"
	"ladiff/internal/tree"
)

// ShortCircuitIdentical is the root-hash fast path of the fingerprint
// ladder: when old and new carry the same Merkle root fingerprint —
// and an isomorphism walk confirms it, so a hash collision can never
// slip through — the full Result of a diff is known without running
// matching or generation: an empty script, every node matched to its
// positional counterpart, and a transformed tree that is just a clone
// of old. The second result is false when the trees differ (or either
// is empty), in which case the caller proceeds with the normal
// pipeline.
//
// Diff consults this automatically when Options.Match.PruneIdentical
// is set; the serving layer calls it directly because it drives the
// match and generation phases itself.
func ShortCircuitIdentical(ctx context.Context, old, new *tree.Tree) (*Result, bool) {
	if old == nil || new == nil || old.Root() == nil || new.Root() == nil {
		return nil, false
	}
	if old.Fingerprints().Root() != new.Fingerprints().Root() {
		return nil, false
	}
	if !tree.Isomorphic(old, new) {
		return nil, false // fingerprint collision: fall through, stay correct
	}
	m := match.NewMatching()
	m.Reserve(old, new)
	po, pn := old.PreOrder(), new.PreOrder()
	for i := range po {
		if err := m.Add(po[i].ID(), pn[i].ID()); err != nil {
			return nil, false
		}
	}
	// One span for the whole skipped pipeline, mirroring the matcher's
	// in-pass "prune" span: the trace shows where the work went (nowhere)
	// and how much was avoided.
	_, sp := obs.StartSpan(ctx, "prune")
	sp.Str("short_circuit", "root-fingerprint")
	sp.Int("pairs", int64(m.Len()))
	sp.Int("nodes_skipped", int64(old.Len()+new.Len()))
	sp.End()
	return &Result{
		Matching:    m,
		Total:       m.Clone(),
		Old:         old,
		New:         new,
		Transformed: old.Clone(),
		InsertedNew: make(map[tree.NodeID]bool),
		UpdatedOld:  make(map[tree.NodeID]string),
		MovedOld:    make(map[tree.NodeID]bool),
		DeletedOld:  make(map[tree.NodeID]bool),
	}, true
}
