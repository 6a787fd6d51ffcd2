package match

import (
	"fmt"

	"ladiff/internal/lderr"
	"ladiff/internal/tree"
	"ladiff/internal/zs"
)

// zsMatch is the "zs" engine: it derives the matching from an optimal
// Zhang–Shasha edit mapping under zs.MatchingCosts — the §5 "best
// matching" route via [Zha95]. Cross-label pairs are priced out,
// same-label pairs priced by value distance, so every surviving pair is
// a legal matching entry. It ignores the matching criteria (no
// thresholds) and pairs nodes to globally minimize insert/delete/
// relabel cost — the thorough-but-expensive end of the paper's §2
// trade-off, O(n² log² n) or worse.
func zsMatch(old, new *tree.Tree, opts Options) (*Matching, error) {
	// Budget pre-gate: Zhang–Shasha is Ω(n1·n2) before the first useful
	// result, so a budgeted run whose tree product already exceeds the
	// budget degrades immediately instead of burning the work first.
	if err := GateQuadraticBudget("zs", old, new, opts.WorkBudget); err != nil {
		return nil, err
	}
	pairs, _, err := zs.Mapping(old, new, zs.MatchingCosts(opts.Compare))
	if err != nil {
		return nil, err
	}
	return MatchingFromMapPairs(old, new, pairs)
}

// GateQuadraticBudget degrades an engine whose work is Ω(n1·n2) before
// it produces anything, when that product already exceeds the budget.
func GateQuadraticBudget(engine string, old, new *tree.Tree, budget int64) error {
	if budget <= 0 {
		return nil
	}
	if n1, n2 := int64(old.Len()), int64(new.Len()); n1 > 0 && n2 > budget/n1 {
		return lderr.Degraded(fmt.Errorf(
			"match: %s engine needs ≥ %d·%d work units, budget is %d", engine, n1, n2, budget))
	}
	return nil
}

// MatchingFromMapPairs converts an optimal edit mapping into a
// Matching between old and new, keeping only the label-preserving
// pairs.
func MatchingFromMapPairs(old, new *tree.Tree, pairs []zs.MapPair) (*Matching, error) {
	m := NewMatching()
	m.Reserve(old, new)
	for _, p := range pairs {
		if p.Old.Label() != p.New.Label() {
			// MatchingCosts makes this impossible unless delete+insert
			// tied with a forbidden relabel; skip defensively.
			continue
		}
		if err := m.Add(p.Old.ID(), p.New.ID()); err != nil {
			return nil, fmt.Errorf("match: optimal mapping not one-to-one: %w", err)
		}
	}
	return m, nil
}
