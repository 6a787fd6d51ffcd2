package match

import (
	"fmt"

	"ladiff/internal/tree"
)

// KeyFunc extracts an application-level key from a node, returning ok =
// false for keyless nodes. The paper's introduction notes that when the
// data does carry unique identifiers or keys, "our algorithms can take
// advantage of them to quickly match fragments that have not changed"
// (§1); supplying a KeyFunc in Options enables exactly that: before the
// criteria-based algorithms run, nodes whose (label, key) pair is unique
// in both trees are matched directly, in one hash-join pass.
type KeyFunc func(n *tree.Node) (key string, ok bool)

// matchByKeys pre-pairs nodes by (label, key). Keys that appear more
// than once on a side are ignored (they cannot identify anything), as
// are keys present on only one side. The pass is O(n) with one map per
// side; each lookup is a partner check in the §8 work accounting and is
// charged to the work budget.
func (mr *matcher) matchByKeys(key KeyFunc) error {
	type slot struct {
		node *tree.Node
		dup  bool
	}
	index := func(t *tree.Tree) map[[2]string]*slot {
		idx := make(map[[2]string]*slot)
		t.Walk(func(n *tree.Node) bool {
			k, ok := key(n)
			if !ok {
				return true
			}
			id := [2]string{string(n.Label()), k}
			if s, exists := idx[id]; exists {
				s.dup = true
				return true
			}
			idx[id] = &slot{node: n}
			return true
		})
		return idx
	}
	oldIdx := index(mr.t1)
	newIdx := index(mr.t2)
	for id, s1 := range oldIdx {
		mr.opts.Stats.PartnerChecks++
		mr.opts.Stats.EffectivePartnerChecks++
		mr.charge(1)
		if mr.err != nil {
			return mr.runErr()
		}
		if s1.dup {
			continue
		}
		s2, ok := newIdx[id]
		if !ok || s2.dup {
			continue
		}
		if err := mr.m.Add(s1.node.ID(), s2.node.ID()); err != nil {
			return fmt.Errorf("match: key pre-pass: %w", err)
		}
	}
	return nil
}
