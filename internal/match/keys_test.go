package match_test

import (
	"errors"
	"strings"
	"testing"

	"ladiff/internal/compare"
	"ladiff/internal/lderr"
	. "ladiff/internal/match"
	"ladiff/internal/tree"
)

// keyFromValue extracts "id=<x>" prefixes as keys, the database-dump
// shape of the paper's introduction.
func keyFromValue(n *tree.Node) (string, bool) {
	if !strings.HasPrefix(n.Value(), "id=") {
		return "", false
	}
	fields := strings.Fields(n.Value())
	return strings.TrimPrefix(fields[0], "id="), true
}

func TestKeyedMatchingSurvivesHeavyValueChange(t *testing.T) {
	// The row's content changed almost completely — value-based matching
	// would treat it as delete+insert — but the key identifies it.
	t1 := tree.MustParse(`db
  row "id=7 name=ann role=admin office=hq"
  row "id=8 name=bob role=user office=hq"`)
	t2 := tree.MustParse(`db
  row "id=7 title=president division=global floor=9"
  row "id=8 name=bob role=user office=hq"`)
	withKey, err := FastMatch(t1, t2, Options{Key: keyFromValue, Compare: compare.TokenSet})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := withKey.ToNew(2); !ok || got != 2 {
		t.Fatalf("keyed row not matched: %v, %v", got, ok)
	}
	without, err := FastMatch(t1, t2, Options{Compare: compare.TokenSet})
	if err != nil {
		t.Fatal(err)
	}
	if without.MatchedOld(2) {
		t.Fatal("value-based matching should reject the rewritten row (this is the case keys exist for)")
	}
}

func TestDuplicateKeysIgnored(t *testing.T) {
	t1 := tree.MustParse(`db
  row "id=7 name=first copy here"
  row "id=7 name=second copy here"`)
	t2 := tree.MustParse(`db
  row "id=7 name=first copy here"`)
	m, err := FastMatch(t1, t2, Options{Key: keyFromValue})
	if err != nil {
		t.Fatal(err)
	}
	// The duplicate key must not force a match; value-based matching
	// still pairs the identical rows.
	oldID, ok := m.ToOld(2)
	if !ok {
		t.Fatal("identical row should still match by value")
	}
	if t1.Node(oldID).Value() != "id=7 name=first copy here" {
		t.Fatalf("matched the wrong duplicate: %v", t1.Node(oldID))
	}
}

func TestKeylessNodesFallThrough(t *testing.T) {
	t1 := tree.MustParse(`db
  row "id=1 keyed row content"
  note "an unkeyed annotation here"`)
	t2 := tree.MustParse(`db
  note "an unkeyed annotation here"
  row "id=1 keyed row content"`)
	m, err := FastMatch(t1, t2, Options{Key: keyFromValue})
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 3 {
		t.Fatalf("matched %d pairs, want all 3", m.Len())
	}
}

func TestKeyedWorksInBothMatchers(t *testing.T) {
	t1 := tree.MustParse(`db
  row "id=1 alpha beta gamma"
  row "id=2 delta epsilon zeta"`)
	t2 := tree.MustParse(`db
  row "id=2 totally rewritten now"
  row "id=1 also fully rewritten"`)
	for name, algo := range map[string]func(*tree.Tree, *tree.Tree, Options) (*Matching, error){
		"Match":     Match,
		"FastMatch": FastMatch,
	} {
		m, err := algo(t1, t2, Options{Key: keyFromValue})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a, _ := m.ToNew(2)
		b, _ := m.ToNew(3)
		if a != 3 || b != 2 {
			t.Fatalf("%s: keyed crossing not matched: %v %v", name, a, b)
		}
	}
}

// TestKeyedPassChargesWork pins the keyed pre-pass into the §8 work
// accounting: its lookups count as executed partner checks and draw on
// the work budget, so a budget one unit short of the run's r1+r2
// degrades.
func TestKeyedPassChargesWork(t *testing.T) {
	t1 := tree.MustParse(`db
  row "id=1 alpha beta gamma"
  row "id=2 delta epsilon zeta"
  note "an unkeyed annotation here"`)
	t2 := tree.MustParse(`db
  row "id=2 totally rewritten now"
  note "an unkeyed annotation here"
  row "id=1 also fully rewritten"`)
	for name, algo := range map[string]func(*tree.Tree, *tree.Tree, Options) (*Matching, error){
		"Match":     Match,
		"FastMatch": FastMatch,
	} {
		stats := &Stats{}
		want, err := algo(t1, t2, Options{Key: keyFromValue, Stats: stats})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if stats.EffectivePartnerChecks != stats.PartnerChecks {
			t.Errorf("%s: effective partner checks %d, logical %d", name,
				stats.EffectivePartnerChecks, stats.PartnerChecks)
		}
		total := stats.Total()
		got, err := algo(t1, t2, Options{Key: keyFromValue, WorkBudget: total})
		if err != nil {
			t.Fatalf("%s: budget %d (= r1+r2): %v", name, total, err)
		}
		if !pairsEqual(got, want) {
			t.Errorf("%s: budget %d: matching differs from the unbudgeted run", name, total)
		}
		_, err = algo(t1, t2, Options{Key: keyFromValue, WorkBudget: total - 1})
		if !errors.Is(err, lderr.ErrDegraded) {
			t.Errorf("%s: budget %d (r1+r2 − 1): err = %v, want ErrDegraded", name, total-1, err)
		}
	}
}
