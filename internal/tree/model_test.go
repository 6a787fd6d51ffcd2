package tree

import (
	"fmt"
	"math/rand"
	"testing"
)

// model is the reference the dense node table is checked against: a
// map from NodeID to the node the tree must return, plus the shape as
// plain ID lists.
type model struct {
	root    NodeID
	nodes   map[NodeID]*Node
	kids    map[NodeID][]NodeID
	parent  map[NodeID]NodeID
	maxID   NodeID
	deleted []NodeID // IDs whose nodes were deleted and not re-inserted
}

func newModel(t *Tree) *model {
	m := &model{
		root:   t.Root().ID(),
		nodes:  map[NodeID]*Node{t.Root().ID(): t.Root()},
		kids:   map[NodeID][]NodeID{},
		parent: map[NodeID]NodeID{},
		maxID:  t.Root().ID(),
	}
	return m
}

func (m *model) attach(p NodeID, k int, id NodeID) {
	ks := m.kids[p]
	ks = append(ks, 0)
	copy(ks[k:], ks[k-1:])
	ks[k-1] = id
	m.kids[p] = ks
	m.parent[id] = p
}

func (m *model) detach(id NodeID) {
	p := m.parent[id]
	ks := m.kids[p]
	for i, c := range ks {
		if c == id {
			m.kids[p] = append(ks[:i:i], ks[i+1:]...)
			break
		}
	}
	delete(m.parent, id)
}

func (m *model) inSubtree(root, id NodeID) bool {
	for cur := id; cur != 0; cur = m.parent[cur] {
		if cur == root {
			return true
		}
	}
	return false
}

func (m *model) preOrder() []NodeID {
	var out []NodeID
	var rec func(NodeID)
	rec = func(id NodeID) {
		out = append(out, id)
		for _, c := range m.kids[id] {
			rec(c)
		}
	}
	rec(m.root)
	return out
}

// ids returns the live IDs in ascending order, so random picks are
// reproducible from the seed.
func (m *model) ids() []NodeID {
	var out []NodeID
	for id := NodeID(1); id <= m.maxID; id++ {
		if m.nodes[id] != nil {
			out = append(out, id)
		}
	}
	return out
}

// check asserts every observable of the dense table against the model.
func (m *model) check(tr *Tree) error {
	if tr.Len() != len(m.nodes) {
		return fmt.Errorf("Len = %d, model has %d", tr.Len(), len(m.nodes))
	}
	if tr.MaxID() != m.maxID {
		return fmt.Errorf("MaxID = %d, model %d", tr.MaxID(), m.maxID)
	}
	for id := NodeID(-1); id <= m.maxID+2; id++ {
		want := m.nodes[id]
		if got := tr.Node(id); got != want {
			return fmt.Errorf("Node(%d) = %v, want %v", id, got, want)
		}
		if got := tr.Contains(id); got != (want != nil) {
			return fmt.Errorf("Contains(%d) = %v, want %v", id, got, want != nil)
		}
	}
	want := m.preOrder()
	got := tr.PreOrder()
	if len(got) != len(want) {
		return fmt.Errorf("PreOrder has %d nodes, model %d", len(got), len(want))
	}
	for i, n := range got {
		if n.ID() != want[i] || n != m.nodes[want[i]] {
			return fmt.Errorf("PreOrder[%d] = %v, model id %d", i, n, want[i])
		}
	}
	return tr.Validate()
}

// TestDenseTableModel runs seeded random Insert, InsertChildID, Delete,
// Move, WrapRoot and Clone sequences — rejected operations included —
// against the map reference, checking after every step that the ID
// holes left by deletes stay invisible and the table agrees with the
// tree's shape.
func TestDenseTableModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tr := NewWithRoot("root", "")
			m := newModel(tr)
			pick := func(ids []NodeID) NodeID { return ids[rng.Intn(len(ids))] }
			for step := 0; step < 300; step++ {
				ids := m.ids()
				var desc string
				switch op := rng.Intn(10); {
				case op < 3: // Insert
					p := pick(ids)
					k := 1 + rng.Intn(len(m.kids[p])+1)
					n := tr.InsertChild(m.nodes[p], k, "n", fmt.Sprint(step))
					desc = fmt.Sprintf("InsertChild(%d,%d)", p, k)
					if n.ID() != m.maxID+1 {
						t.Fatalf("step %d %s: got ID %d, want %d", step, desc, n.ID(), m.maxID+1)
					}
					m.maxID = n.ID()
					m.nodes[n.ID()] = n
					m.attach(p, k, n.ID())
				case op < 5: // InsertChildID, valid or rejected
					p := pick(ids)
					k := 1 + rng.Intn(len(m.kids[p])+1)
					var id NodeID
					valid := true
					switch r := rng.Intn(6); {
					case r < 2:
						id = m.maxID + 1 + NodeID(rng.Intn(10))
					case r < 3 && len(m.deleted) > 0:
						i := rng.Intn(len(m.deleted))
						id = m.deleted[i]
						m.deleted = append(m.deleted[:i], m.deleted[i+1:]...)
					case r < 3:
						id = m.maxID + 1
					case r < 4:
						id, valid = pick(ids), false // in use
					case r < 5:
						id, valid = NodeID(-rng.Intn(2)), false // 0 or -1
					default:
						id, valid = m.maxID+MaxIDGap+1+NodeID(rng.Int63n(1<<40)), false
					}
					desc = fmt.Sprintf("InsertChildID(%d,%d,id=%d)", p, k, id)
					n, err := tr.InsertChildID(m.nodes[p], k, id, "n", "")
					if valid != (err == nil) {
						t.Fatalf("step %d %s: err = %v, want valid=%v", step, desc, err, valid)
					}
					if valid {
						m.nodes[id] = n
						m.attach(p, k, id)
						if id > m.maxID {
							m.maxID = id
						}
					}
				case op < 7: // Delete a non-root leaf
					var leaves []NodeID
					for _, id := range ids {
						if id != m.root && len(m.kids[id]) == 0 {
							leaves = append(leaves, id)
						}
					}
					if len(leaves) == 0 {
						continue
					}
					id := pick(leaves)
					desc = fmt.Sprintf("Delete(%d)", id)
					if err := tr.Delete(m.nodes[id]); err != nil {
						t.Fatalf("step %d %s: %v", step, desc, err)
					}
					m.detach(id)
					delete(m.nodes, id)
					m.deleted = append(m.deleted, id)
				case op < 9: // Move, valid or with a rejected position
					if len(ids) < 2 {
						continue
					}
					n := pick(ids)
					for n == m.root {
						n = pick(ids)
					}
					p := pick(ids)
					if m.inSubtree(n, p) {
						desc = fmt.Sprintf("Move(%d under own subtree %d)", n, p)
						if err := tr.Move(m.nodes[n], m.nodes[p], 1); err == nil {
							t.Fatalf("step %d %s: accepted", step, desc)
						}
						break
					}
					limit := len(m.kids[p]) + 1
					if m.parent[n] == p {
						limit--
					}
					k := 1 + rng.Intn(limit)
					valid := rng.Intn(5) > 0
					if !valid {
						k = limit + 1 + rng.Intn(3)
					}
					desc = fmt.Sprintf("Move(%d,%d,%d)", n, p, k)
					err := tr.Move(m.nodes[n], m.nodes[p], k)
					if valid != (err == nil) {
						t.Fatalf("step %d %s: err = %v, want valid=%v", step, desc, err, valid)
					}
					if valid {
						m.detach(n)
						m.attach(p, k, n)
					}
				case rng.Intn(2) == 0: // WrapRoot
					n := tr.WrapRoot("wrap", "")
					desc = "WrapRoot"
					if n.ID() != m.maxID+1 {
						t.Fatalf("step %d WrapRoot: got ID %d, want %d", step, n.ID(), m.maxID+1)
					}
					m.maxID = n.ID()
					m.nodes[n.ID()] = n
					m.kids[n.ID()] = []NodeID{m.root}
					m.parent[m.root] = n.ID()
					m.root = n.ID()
				default: // Clone, then continue on the copy
					c := tr.Clone()
					desc = "Clone"
					var remap func(a, b *Node)
					remap = func(a, b *Node) {
						m.nodes[b.ID()] = b
						for i, ch := range a.Children() {
							remap(ch, b.Children()[i])
						}
					}
					remap(tr.Root(), c.Root())
					tr = c
				}
				if err := m.check(tr); err != nil {
					t.Fatalf("step %d after %s: %v", step, desc, err)
				}
			}
		})
	}
}
