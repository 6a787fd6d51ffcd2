package match

import (
	"sort"

	"ladiff/internal/obs"
	"ladiff/internal/tree"
)

// Merkle pre-match pruning.
//
// Before any Criterion-1/2 label round runs, subtrees of t1 and t2 with
// equal content fingerprints are matched wholesale: the subtree pair is
// verified structurally (never trusting the hash alone) and then every
// node of the old subtree is paired with its positional counterpart in
// the new subtree. The scan is top-down over t1 in breadth-first order,
// so the largest identical regions are claimed first and their interiors
// never re-examined; the label rounds that follow operate only on the
// unmatched residue (see pruneResidue), making matching work
// proportional to the edited region rather than the document size.
//
// Soundness against the §5.2 criteria: an identical leaf pair satisfies
// Criterion 1 with distance 0 ≤ f; an identical internal pair satisfies
// Criterion 2 because its leaf descendants are matched pairwise by the
// same claim, giving |common(x,y)| = max(|x|,|y|), a ratio of 1 > t for
// any admissible t. The one-to-one invariant holds because a claim is
// committed only after the verification walk confirms every node on
// both sides is still unmatched, and committed claims are disjoint by
// construction (a claimed region is fully matched, so later probes
// reject it).
//
// Pruned pairs are charged to the dedicated Pruned* counters, not to
// r1/r2: the r1/r2 contract counts the logical comparisons of Figures
// 10–11, and with pruning disabled those counters must stay
// bit-identical to an engine without this pass at all.

// pruneIdentical runs the pruning pass under a "prune" span. Called
// only when Options.PruneIdentical is set — the disabled path never
// reaches this file.
func (mr *matcher) pruneIdentical() {
	_, sp := obs.StartSpan(mr.opts.Ctx, "prune")
	subtrees, pairs := mr.runPrune()
	sp.Int("subtrees", subtrees)
	sp.Int("pairs", pairs)
	// Each wholesale pair removes one old and one new node from all
	// later per-node matching work.
	sp.Int("nodes_skipped", 2*pairs)
	sp.End()
}

func (mr *matcher) runPrune() (subtrees, pairs int64) {
	fp1 := mr.opts.PruneFP1
	if fp1 == nil {
		fp1 = mr.t1.Fingerprints()
	}
	fp2 := mr.opts.PruneFP2
	if fp2 == nil {
		fp2 = mr.t2.Fingerprints()
	}

	// Candidate lists: fingerprint → new-tree subtree roots in document
	// order, so the first fit is deterministic.
	cands := make(map[tree.Fingerprint][]*tree.Node, mr.t2.Len())
	for _, y := range mr.t2.PreOrder() {
		if f, ok := fp2.Of(y.ID()); ok {
			cands[f] = append(cands[f], y)
		}
	}

	// claimedIn holds the Euler entry numbers of new-tree nodes that a
	// candidate may not contain: the roots of subtrees claimed by this
	// pass, seeded with every node already matched before it ran (the
	// key pre-pass). A candidate with any claimed entry strictly inside
	// its interval cannot be wholesale-matched without violating
	// one-to-one; the sorted slice answers that in O(log k).
	claimedIn := make([]int32, 0, 16)
	for _, p := range mr.m.Pairs() {
		if in, _, ok := mr.idx2.Interval(p.New); ok {
			claimedIn = append(claimedIn, in)
		}
	}
	sort.Slice(claimedIn, func(i, j int) bool { return claimedIn[i] < claimedIn[j] })

	// cursor skips each list's permanently consumed prefix: matched
	// candidates stay matched and claims are never undone, so the skip
	// is monotone.
	cursor := make(map[tree.Fingerprint]int)

	polls := 0
	for _, x := range mr.t1.BreadthFirst() {
		polls++
		if polls%ctxPollStride == 0 && mr.checkCtxNow() {
			break
		}
		if mr.m.MatchedOld(x.ID()) {
			continue // interior of an already-claimed old subtree
		}
		f, ok := fp1.Of(x.ID())
		if !ok {
			continue
		}
		list := cands[f]
		i := cursor[f]
		for i < len(list) && mr.pruneConsumed(list[i], claimedIn) {
			i++
		}
		cursor[f] = i
		for j := i; j < len(list); j++ {
			y := list[j]
			if j > i && mr.pruneConsumed(y, claimedIn) {
				continue
			}
			if !mr.pruneVerify(x, y) {
				// Fingerprint collision (or a matched node the interval
				// seed missed): the structural guard refuses the claim.
				continue
			}
			pairs += mr.matchSubtrees(x, y)
			subtrees++
			if in, _, ok := mr.idx2.Interval(y.ID()); ok {
				k := sort.Search(len(claimedIn), func(i int) bool { return claimedIn[i] >= in })
				claimedIn = append(claimedIn, 0)
				copy(claimedIn[k+1:], claimedIn[k:])
				claimedIn[k] = in
			}
			break
		}
	}
	mr.opts.Stats.PrunedSubtrees += subtrees
	mr.opts.Stats.PrunedPairs += pairs
	return subtrees, pairs
}

// pruneConsumed reports whether candidate y is unavailable: already
// matched (it lies in or at the root of a claimed region) or containing
// a claimed entry strictly inside its Euler interval.
func (mr *matcher) pruneConsumed(y *tree.Node, claimedIn []int32) bool {
	if mr.m.MatchedNew(y.ID()) {
		return true
	}
	yIn, yOut, ok := mr.idx2.Interval(y.ID())
	if !ok {
		return true
	}
	k := sort.Search(len(claimedIn), func(i int) bool { return claimedIn[i] > yIn })
	return k < len(claimedIn) && claimedIn[k] < yOut
}

// pruneVerify is the collision guard: it re-checks, node by node, that
// the two subtrees really are identical (same labels, values, and
// shape) and that every node on both sides is still unmatched. Only a
// walk that passes in full lets the claim commit, so a fingerprint
// collision can never produce a wrong match — only a wasted probe.
func (mr *matcher) pruneVerify(a, b *tree.Node) bool {
	mr.opts.Stats.PruneVerifyNodes++
	if mr.m.MatchedOld(a.ID()) || mr.m.MatchedNew(b.ID()) {
		return false
	}
	if a.Label() != b.Label() || a.Value() != b.Value() || a.NumChildren() != b.NumChildren() {
		return false
	}
	ca, cb := a.Children(), b.Children()
	for i := range ca {
		if !mr.pruneVerify(ca[i], cb[i]) {
			return false
		}
	}
	return true
}

// matchSubtrees commits one verified claim, pairing the two subtrees
// node by node in parallel preorder. Returns the number of pairs added.
func (mr *matcher) matchSubtrees(a, b *tree.Node) int64 {
	mr.add(a, b)
	n := int64(1)
	ca, cb := a.Children(), b.Children()
	for i := range ca {
		n += mr.matchSubtrees(ca[i], cb[i])
	}
	return n
}

// pruneResidue filters a label chain to its unmatched nodes when the
// pruning pass is enabled. This is what makes the residue rounds cheap:
// FastMatch's Myers LCS over the full chains would pay O(N·D) with D
// growing by one per pre-matched (refusing) node, and Match's quadratic
// pairing would rescan every matched candidate — both recreating the
// per-node cost pruning exists to avoid. With pruning disabled the
// exact index chain is returned, preserving byte-identical behavior.
func (mr *matcher) pruneResidue(chain []*tree.Node, matched func(tree.NodeID) bool) []*tree.Node {
	if !mr.opts.PruneIdentical {
		return chain
	}
	out := make([]*tree.Node, 0, len(chain))
	for _, n := range chain {
		if !matched(n.ID()) {
			out = append(out, n)
		}
	}
	return out
}
