package edit

import (
	"encoding/json"
	"testing"

	"ladiff/internal/tree"
)

// TestApplyRejectsHugeInsertID: a decoded INS naming an ID far past the
// tree's allocator is an error, not an attempt to grow the node table to
// that size; the tree keeps its shape.
func TestApplyRejectsHugeInsertID(t *testing.T) {
	var s Script
	if err := json.Unmarshal([]byte(`[{"op":"insert","node":1099511627776,"label":"s","value":"x","parent":1,"pos":1}]`), &s); err != nil {
		t.Fatal(err)
	}
	if s[0].Node != 1<<40 {
		t.Fatalf("decoded node %d, want 1<<40", s[0].Node)
	}
	tr := sample()
	before := tr.String()
	if err := s.Apply(tr); err == nil {
		t.Fatal("INS with ID 1<<40 applied")
	}
	if tr.String() != before || tr.MaxID() != sample().MaxID() {
		t.Fatalf("rejected INS changed the tree:\n%s", tr)
	}
	if _, err := Invert(s, sample()); err == nil {
		t.Fatal("Invert accepted INS with ID 1<<40")
	}
}

// FuzzApplyDecodedScript decodes arbitrary bytes as a JSON script and
// applies it to a small tree. Whatever the ops name — huge or negative
// IDs, bad positions, cycles, deleted nodes — the result is an error or
// a tree that passes Validate and whose node table stays within
// MaxIDGap of the nodes it has held, never a panic.
func FuzzApplyDecodedScript(f *testing.F) {
	f.Add([]byte(`[{"op":"insert","node":7,"label":"s","value":"x","parent":2,"pos":1}]`))
	f.Add([]byte(`[{"op":"insert","node":1099511627776,"label":"s","parent":1,"pos":1}]`))
	f.Add([]byte(`[{"op":"move","node":2,"parent":5,"pos":1},{"op":"delete","node":3}]`))
	f.Add([]byte(`[{"op":"delete","node":3},{"op":"insert","node":3,"label":"s","parent":2,"pos":2}]`))
	f.Add([]byte(`[{"op":"update","node":6,"value":"y"},{"op":"move","node":5,"parent":2,"pos":3}]`))
	f.Add([]byte(`[{"op":"move","node":1,"parent":2,"pos":1},{"op":"delete","node":-4}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Script
		if err := json.Unmarshal(data, &s); err != nil {
			return
		}
		tr := sample()
		if err := s.Apply(tr); err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("script %v applied but left an invalid tree: %v", s, err)
		}
		// The table spans at most MaxIDGap past every node ever held.
		if tr.MaxID() > tree.NodeID(sample().Len()+len(s))+tree.MaxIDGap {
			t.Fatalf("MaxID %d after %d ops grew past the bound", tr.MaxID(), len(s))
		}
	})
}
