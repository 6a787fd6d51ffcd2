// Package gen produces the synthetic workloads used by the test suite and
// by the benchmark harness that regenerates the paper's evaluation (§8).
//
// The paper's measurements ran on three private sets of versions of a
// Stanford conference paper. Those files are unavailable, so this package
// builds seeded random documents with the same structure LaDiff parses
// (document → section → paragraph → sentence, plus lists and items) and
// perturbs them with the same operation mix the paper describes: sentence
// and paragraph inserts, deletes, updates, and moves. Because every
// perturbation is applied to an ID-preserving clone, the generator also
// knows the ground-truth correspondence between versions, which the
// property-based tests use to drive Algorithm EditScript directly.
package gen

import (
	"fmt"
	"math/rand"
	"strings"

	"ladiff/internal/match"
	"ladiff/internal/tree"
)

// Document labels shared with the LaDiff front ends.
const (
	LabelDocument  tree.Label = "document"
	LabelSection   tree.Label = "section"
	LabelParagraph tree.Label = "paragraph"
	LabelSentence  tree.Label = "sentence"
	LabelList      tree.Label = "list"
	LabelItem      tree.Label = "item"
)

// DocParams sizes a synthetic document. Zero fields take the defaults
// noted on each field.
type DocParams struct {
	Seed int64
	// Sections is the number of top-level sections (default 4).
	Sections int
	// ParagraphsPerSection bounds paragraphs per section (default 3–6).
	MinParagraphs, MaxParagraphs int
	// SentencesPerParagraph bounds sentences per paragraph (default 2–6).
	MinSentences, MaxSentences int
	// WordsPerSentence bounds words per sentence (default 6–14).
	MinWords, MaxWords int
	// Vocabulary is the word-pool size (default 600). Smaller pools make
	// near-duplicate sentences more likely.
	Vocabulary int
	// DuplicateRate is the probability that a sentence is generated as a
	// near-copy of an earlier sentence in the same document — the knob
	// that controls how often Matching Criterion 3 is violated (Table 1).
	DuplicateRate float64
}

func (p DocParams) withDefaults() DocParams {
	if p.Sections == 0 {
		p.Sections = 4
	}
	if p.MinParagraphs == 0 {
		p.MinParagraphs = 3
	}
	if p.MaxParagraphs < p.MinParagraphs {
		p.MaxParagraphs = p.MinParagraphs + 3
	}
	if p.MinSentences == 0 {
		p.MinSentences = 2
	}
	if p.MaxSentences < p.MinSentences {
		p.MaxSentences = p.MinSentences + 4
	}
	if p.MinWords == 0 {
		p.MinWords = 6
	}
	if p.MaxWords < p.MinWords {
		p.MaxWords = p.MinWords + 8
	}
	if p.Vocabulary == 0 {
		p.Vocabulary = 600
	}
	return p
}

// Document generates a seeded random document tree.
func Document(p DocParams) *tree.Tree {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	t := tree.NewWithRoot(LabelDocument, "")
	var sentences []string
	sentence := func() string {
		if p.DuplicateRate > 0 && len(sentences) > 0 && rng.Float64() < p.DuplicateRate {
			// Near-duplicate: copy an earlier sentence and tweak one word,
			// creating a pair within compare-distance 1 of each other.
			src := sentences[rng.Intn(len(sentences))]
			words := strings.Fields(src)
			if len(words) > 0 {
				words[rng.Intn(len(words))] = word(rng, p.Vocabulary)
			}
			s := strings.Join(words, " ")
			sentences = append(sentences, s)
			return s
		}
		n := p.MinWords + rng.Intn(p.MaxWords-p.MinWords+1)
		words := make([]string, n)
		for i := range words {
			words[i] = word(rng, p.Vocabulary)
		}
		s := strings.Join(words, " ")
		sentences = append(sentences, s)
		return s
	}
	for s := 0; s < p.Sections; s++ {
		sec := t.AppendChild(t.Root(), LabelSection, fmt.Sprintf("Section %d", s+1))
		nPara := p.MinParagraphs + rng.Intn(p.MaxParagraphs-p.MinParagraphs+1)
		for q := 0; q < nPara; q++ {
			para := t.AppendChild(sec, LabelParagraph, "")
			nSent := p.MinSentences + rng.Intn(p.MaxSentences-p.MinSentences+1)
			for w := 0; w < nSent; w++ {
				t.AppendChild(para, LabelSentence, sentence())
			}
		}
	}
	return t
}

// word draws from a Zipf-like distribution over a synthetic vocabulary:
// low-index words are much more frequent, as in natural text.
func word(rng *rand.Rand, vocabulary int) string {
	// Square a uniform variate to skew toward small indices.
	u := rng.Float64()
	idx := int(u * u * float64(vocabulary))
	if idx >= vocabulary {
		idx = vocabulary - 1
	}
	return fmt.Sprintf("w%03d", idx)
}

// PerturbParams selects how many operations of each kind Perturb applies.
type PerturbParams struct {
	Seed            int64
	InsertSentences int
	DeleteSentences int
	UpdateSentences int
	MoveSentences   int
	MoveParagraphs  int
	// UpdateFraction is the fraction of words rewritten by an update
	// (default 0.25, comfortably inside the leaf threshold for typical
	// sentences).
	UpdateFraction float64
	// Vocabulary used for inserted/updated words (default 600).
	Vocabulary int
}

// Ops returns the total number of perturbation operations.
func (p PerturbParams) Ops() int {
	return p.InsertSentences + p.DeleteSentences + p.UpdateSentences + p.MoveSentences + p.MoveParagraphs
}

// Mix builds a PerturbParams applying total operations split across the
// kinds with the paper's document-editing flavor: mostly sentence-level
// edits with occasional paragraph moves.
func Mix(seed int64, total int) PerturbParams {
	p := PerturbParams{Seed: seed}
	for i := 0; i < total; i++ {
		switch i % 5 {
		case 0:
			p.UpdateSentences++
		case 1:
			p.InsertSentences++
		case 2:
			p.DeleteSentences++
		case 3:
			p.MoveSentences++
		case 4:
			p.MoveParagraphs++
		}
	}
	return p
}

// Perturbed is the outcome of Perturb.
type Perturbed struct {
	// New is the perturbed version of the input tree.
	New *tree.Tree
	// Truth is the ground-truth matching between the input tree and New:
	// every surviving node is matched to its own continuation. This is
	// the matching an oracle with object identifiers would produce (§1).
	Truth *match.Matching
	// Applied counts the operations actually applied (requested
	// operations are skipped when the document runs out of material,
	// e.g. deleting from an empty paragraph).
	Applied int
}

// Perturb clones t and applies the requested operations to the clone,
// returning the perturbed tree plus the ground-truth matching. The input
// tree is not modified.
func Perturb(t *tree.Tree, p PerturbParams) (*Perturbed, error) {
	if t.Root() == nil {
		return nil, fmt.Errorf("gen: perturb of empty tree")
	}
	if p.UpdateFraction == 0 {
		p.UpdateFraction = 0.25
	}
	if p.Vocabulary == 0 {
		p.Vocabulary = 600
	}
	rng := rand.New(rand.NewSource(p.Seed))
	work := t.Clone()
	applied := 0

	pick := func(label tree.Label) *tree.Node {
		nodes := work.Chain(label)
		if len(nodes) == 0 {
			return nil
		}
		return nodes[rng.Intn(len(nodes))]
	}

	for i := 0; i < p.UpdateSentences; i++ {
		s := pick(LabelSentence)
		if s == nil {
			continue
		}
		words := strings.Fields(s.Value())
		if len(words) == 0 {
			continue
		}
		changes := int(p.UpdateFraction*float64(len(words))) + 1
		for j := 0; j < changes; j++ {
			words[rng.Intn(len(words))] = word(rng, p.Vocabulary)
		}
		work.SetValue(s, strings.Join(words, " "))
		applied++
	}
	for i := 0; i < p.InsertSentences; i++ {
		para := pick(LabelParagraph)
		if para == nil {
			break
		}
		n := 6 + rng.Intn(9)
		words := make([]string, n)
		for j := range words {
			words[j] = word(rng, p.Vocabulary)
		}
		work.InsertChild(para, 1+rng.Intn(para.NumChildren()+1), LabelSentence, strings.Join(words, " "))
		applied++
	}
	for i := 0; i < p.DeleteSentences; i++ {
		s := pick(LabelSentence)
		if s == nil {
			break
		}
		if err := work.Delete(s); err != nil {
			return nil, fmt.Errorf("gen: delete perturbation: %w", err)
		}
		applied++
	}
	for i := 0; i < p.MoveSentences; i++ {
		s := pick(LabelSentence)
		para := pick(LabelParagraph)
		if s == nil || para == nil {
			break
		}
		limit := para.NumChildren() + 1
		if s.Parent() == para {
			limit = para.NumChildren()
		}
		if limit < 1 {
			limit = 1
		}
		if err := work.Move(s, para, 1+rng.Intn(limit)); err != nil {
			return nil, fmt.Errorf("gen: sentence move perturbation: %w", err)
		}
		applied++
	}
	for i := 0; i < p.MoveParagraphs; i++ {
		para := pick(LabelParagraph)
		sec := pick(LabelSection)
		if para == nil || sec == nil {
			break
		}
		limit := sec.NumChildren() + 1
		if para.Parent() == sec {
			limit = sec.NumChildren()
		}
		if limit < 1 {
			limit = 1
		}
		if err := work.Move(para, sec, 1+rng.Intn(limit)); err != nil {
			return nil, fmt.Errorf("gen: paragraph move perturbation: %w", err)
		}
		applied++
	}

	truth := match.NewMatching()
	truth.Reserve(t, work)
	work.Walk(func(n *tree.Node) bool {
		if t.Contains(n.ID()) {
			if err := truth.Add(n.ID(), n.ID()); err != nil {
				panic(err)
			}
		}
		return true
	})
	return &Perturbed{New: work, Truth: truth, Applied: applied}, nil
}
