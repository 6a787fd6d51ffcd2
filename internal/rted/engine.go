package rted

import (
	"ladiff/internal/lderr"
	"ladiff/internal/match"
	"ladiff/internal/tree"
	"ladiff/internal/zs"
)

// Match is the "rted" engine: it derives the matching from a true
// optimal edit mapping under zs.MatchingCosts, exactly like the "zs"
// engine but computed with the shape-adaptive optimal-strategy
// decomposition — the quality oracle for trees beyond ZS's comfortable
// range. It ignores the matching criteria (no thresholds) and pairs
// nodes to globally minimize insert/delete/relabel cost.
func Match(old, new *tree.Tree, opts match.Options) (_ *match.Matching, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = lderr.Recovered("rted", v)
		}
	}()
	// Budget pre-gate: the strategy DP alone is Θ(n1·n2), so a budgeted
	// run whose tree product already exceeds the budget degrades
	// immediately instead of burning the work first — same contract as
	// the zs engine, which the core fallback ladder turns into an
	// unbudgeted FastMatch rerun.
	if err := match.GateQuadraticBudget("rted", old, new, opts.WorkBudget); err != nil {
		return nil, err
	}
	pairs, _, err := Mapping(old, new, zs.MatchingCosts(opts.Compare))
	if err != nil {
		return nil, err
	}
	return match.MatchingFromMapPairs(old, new, pairs)
}

func init() {
	match.Register(match.EngineFunc("rted", Match))
}
