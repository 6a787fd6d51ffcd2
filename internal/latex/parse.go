// Package latex implements the LaDiff front end of Chawathe et al.
// (SIGMOD 1996, §7 and Appendix A): parsing a subset of LaTeX into the
// label-value document trees the change-detection pipeline works on, and
// rendering a computed delta tree back into a marked-up LaTeX document
// following the Table 2 conventions.
//
// The parsed subset matches the paper's: sentences, paragraphs,
// subsections, sections, lists, items, and document. As in LaDiff, the
// three list kinds (itemize, enumerate, description) are merged into a
// single "list" label so the label schema stays acyclic (§5.1); directly
// nested lists are flattened into their outer list for the same reason.
package latex

import (
	"fmt"
	"slices"
	"strings"
	"unicode/utf8"

	"ladiff/internal/compare"
	"ladiff/internal/fault"
	"ladiff/internal/gen"
	"ladiff/internal/lderr"
	"ladiff/internal/tree"
)

// Labels used by the document trees; shared with the synthetic generator
// so workloads and parsed documents are interchangeable.
const (
	LabelDocument              = gen.LabelDocument
	LabelSection               = gen.LabelSection
	LabelSubsection tree.Label = "subsection"
	LabelParagraph             = gen.LabelParagraph
	LabelSentence              = gen.LabelSentence
	LabelList                  = gen.LabelList
	LabelItem                  = gen.LabelItem
)

// Parse converts LaTeX source into a document tree. Only the body between
// \begin{document} and \end{document} is parsed when present; otherwise
// the whole input is treated as the body. Comments (% to end of line) are
// stripped. Unknown commands inside text are kept verbatim as words, so
// no content is lost.
func Parse(src string) (*tree.Tree, error) {
	return ParseLimited(src, tree.Limits{})
}

// ParseLimited is Parse with resource limits enforced while the tree is
// built: MaxBytes against the raw input up front, MaxNodes/MaxDepth at
// the first node past the limit. Errors are tagged for the lderr
// taxonomy: syntax failures as ErrParse, limit violations as ErrLimit.
func ParseLimited(src string, lim tree.Limits) (_ *tree.Tree, err error) {
	defer func() { err = lderr.TagAs(lderr.ErrParse, err) }()
	if err := fault.Check(fault.ParseLatex); err != nil {
		return nil, err
	}
	if err := lim.CheckBytes(len(src)); err != nil {
		return nil, err
	}
	defer tree.CatchLimit(&err)

	body := src
	if i := strings.Index(src, `\begin{document}`); i >= 0 {
		body = src[i+len(`\begin{document}`):]
		if j := strings.Index(body, `\end{document}`); j >= 0 {
			body = body[:j]
		} else {
			return nil, fmt.Errorf("latex: \\begin{document} without \\end{document}")
		}
	}

	t := tree.New()
	t.Restrict(lim)
	defer t.Unrestrict()
	t.SetRoot(LabelDocument, "")
	p := &parser{t: t}
	if err := p.parseBody(stripComments(body)); err != nil {
		return nil, err
	}
	p.flushParagraph()
	return t, nil
}

func stripComments(s string) string {
	var b strings.Builder
	for _, line := range strings.Split(s, "\n") {
		// A % escaped as \% stays; an unescaped % starts a comment.
		out := line
		for i := 0; i < len(out); i++ {
			if out[i] == '%' && (i == 0 || out[i-1] != '\\') {
				out = out[:i]
				break
			}
		}
		b.WriteString(out)
		b.WriteByte('\n')
	}
	return b.String()
}

// parser accumulates document structure while scanning the body line by
// line.
type parser struct {
	t          *tree.Tree
	section    *tree.Node // current section, nil before the first
	subsection *tree.Node // current subsection, nil outside one
	list       *tree.Node // current list, nil outside one
	listDepth  int        // nesting depth of list environments (flattened)
	item       *tree.Node // current item, nil outside one
	textBuf    []string   // pending prose for the current paragraph
}

// container returns the node new block-level content attaches to.
func (p *parser) container() *tree.Node {
	switch {
	case p.item != nil:
		return p.item
	case p.subsection != nil:
		return p.subsection
	case p.section != nil:
		return p.section
	default:
		return p.t.Root()
	}
}

var listEnvs = map[string]bool{"itemize": true, "enumerate": true, "description": true}

func (p *parser) parseBody(body string) error {
	for _, rawLine := range strings.Split(body, "\n") {
		line := strings.TrimSpace(rawLine)
		switch {
		case line == "":
			p.flushParagraph()
		case strings.HasPrefix(line, `\section`):
			title, rest, err := bracedArg(line, `\section`)
			if err != nil {
				return err
			}
			p.flushParagraph()
			p.closeList()
			p.subsection = nil
			p.section = p.t.AppendChild(p.t.Root(), LabelSection, title)
			p.bufferText(rest)
		case strings.HasPrefix(line, `\subsection`):
			title, rest, err := bracedArg(line, `\subsection`)
			if err != nil {
				return err
			}
			p.flushParagraph()
			p.closeList()
			if p.section == nil {
				p.section = p.t.AppendChild(p.t.Root(), LabelSection, "")
			}
			p.subsection = p.t.AppendChild(p.section, LabelSubsection, title)
			p.bufferText(rest)
		case strings.HasPrefix(line, `\begin{`):
			env, rest, err := envName(line, `\begin{`)
			if err != nil {
				return err
			}
			if listEnvs[env] {
				p.flushParagraph()
				p.listDepth++
				if p.list == nil {
					// All list kinds share one label (§5.1); a nested
					// list is flattened into the enclosing one.
					p.list = p.t.AppendChild(p.container(), LabelList, "")
					p.item = nil
				}
				p.bufferText(rest)
			} else {
				// Unknown environment: keep its text content.
				p.bufferText(rest)
			}
		case strings.HasPrefix(line, `\end{`):
			env, rest, err := envName(line, `\end{`)
			if err != nil {
				return err
			}
			if listEnvs[env] {
				p.flushParagraph()
				if p.listDepth > 0 {
					p.listDepth--
				}
				if p.listDepth == 0 {
					p.closeList()
				}
			}
			p.bufferText(rest)
		case strings.HasPrefix(line, `\item`):
			if p.list == nil {
				return fmt.Errorf("latex: \\item outside a list environment")
			}
			p.flushParagraph()
			rest := strings.TrimSpace(strings.TrimPrefix(line, `\item`))
			// \item[label] for description lists.
			if strings.HasPrefix(rest, "[") {
				if j := strings.IndexByte(rest, ']'); j >= 0 {
					rest = strings.TrimSpace(rest[j+1:])
				}
			}
			p.item = p.t.AppendChild(p.list, LabelItem, "")
			p.bufferText(rest)
		default:
			p.bufferText(line)
		}
	}
	return nil
}

func (p *parser) bufferText(s string) {
	s = strings.TrimSpace(s)
	if s != "" {
		p.textBuf = append(p.textBuf, s)
	}
}

func (p *parser) closeList() {
	p.flushParagraph()
	p.list = nil
	p.item = nil
	p.listDepth = 0
}

// flushParagraph turns the buffered prose into a paragraph (or item
// content) of sentence leaves.
func (p *parser) flushParagraph() {
	if len(p.textBuf) == 0 {
		return
	}
	text := strings.Join(p.textBuf, " ")
	p.textBuf = nil
	sentences := SplitSentences(text)
	if len(sentences) == 0 {
		return
	}
	parent := p.container()
	if p.item == nil {
		// Items hold sentences directly; ordinary prose gets a paragraph.
		parent = p.t.AppendChild(parent, LabelParagraph, "")
	} else {
		// Leaving the item after its first paragraph of content keeps
		// multi-paragraph items as sibling sentences, which is what
		// LaDiff's subset does.
		parent = p.item
	}
	for _, s := range sentences {
		p.t.AppendChild(parent, LabelSentence, s)
	}
}

// SplitSentences splits prose into sentences on '.', '!', '?' followed by
// whitespace or end of text, keeping the terminator with the sentence.
// Whitespace is normalized to single spaces. Words are those of
// strings.Fields. A sentence whose words are already separated by single
// spaces is returned as a substring of text; only the others are built.
func SplitSentences(text string) []string {
	var out []string
	start, end := -1, 0 // span of the open sentence; start < 0 when none is open
	clean := true       // every separator inside the open sentence is one ' '
	for i := 0; ; {
		ws, we := compare.NextWord(text, i)
		if ws == we {
			break
		}
		if start < 0 {
			start, clean = ws, true
		} else if ws != end+1 || text[end] != ' ' {
			clean = false
		}
		end, i = we, we
		if isSentenceEnd(text[ws:we]) {
			out = append(out, sentence(text[start:end], clean))
			start = -1
		}
	}
	if start >= 0 {
		out = append(out, sentence(text[start:end], clean))
	}
	return out
}

// sentence returns span, which starts and ends with a word, with its
// words joined by single spaces.
func sentence(span string, clean bool) string {
	if clean {
		return span
	}
	var b strings.Builder
	b.Grow(len(span))
	for i := 0; ; {
		ws, we := compare.NextWord(span, i)
		if ws == we {
			return b.String()
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(span[ws:we])
		i = we
	}
}

// abbreviations are the lower-cased shorthands whose period does not end
// a sentence.
var abbreviations = []string{"e.g", "i.e", "cf", "etc", "vs", "dr", "mr", "mrs", "ms", "fig", "eq", "sec"}

func isSentenceEnd(word string) bool {
	// Strip closing punctuation that may follow the terminator.
	w := word
	for len(w) > 0 && strings.IndexByte(`)]}'"`, w[len(w)-1]) >= 0 {
		w = w[:len(w)-1]
	}
	if w == "" {
		return false
	}
	switch w[len(w)-1] {
	case '.', '!', '?':
	default:
		return false
	}
	// Common abbreviation guard: a single letter or known shorthand
	// before the period does not end a sentence ("e.g.", "i.e.", "Dr.").
	for len(w) > 0 && strings.IndexByte(".!?", w[len(w)-1]) >= 0 {
		w = w[:len(w)-1]
	}
	return !isAbbreviation(w)
}

// isAbbreviation reports whether strings.ToLower(s) is one of the
// abbreviations. ASCII is lower-cased byte by byte as it is compared;
// anything else goes through strings.ToLower, because Unicode case
// mapping can change the byte length and must not be approximated
// (U+212A KELVIN SIGN lower-cases to "k"; "ſ" does not fold to "s").
func isAbbreviation(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return slices.Contains(abbreviations, strings.ToLower(s))
		}
	}
	for _, a := range abbreviations {
		if len(a) == len(s) && lowersTo(s, a) {
			return true
		}
	}
	return false
}

// lowersTo reports whether the ASCII string s lower-cases to lower, which
// has the same length.
func lowersTo(s, lower string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// bracedArg extracts the {…} argument following the command prefix and
// returns it along with any text after the closing brace. A starred
// variant (\section*) is accepted.
func bracedArg(line, cmd string) (arg, rest string, err error) {
	s := strings.TrimPrefix(line, cmd)
	s = strings.TrimPrefix(s, "*")
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "{") {
		return "", "", fmt.Errorf("latex: %s missing {title}", cmd)
	}
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				return strings.TrimSpace(s[1:i]), strings.TrimSpace(s[i+1:]), nil
			}
		}
	}
	return "", "", fmt.Errorf("latex: %s has unbalanced braces", cmd)
}

// envName extracts the environment name from a \begin{...} or \end{...}
// line and returns any trailing text.
func envName(line, prefix string) (string, string, error) {
	s := strings.TrimPrefix(line, prefix)
	j := strings.IndexByte(s, '}')
	if j < 0 {
		return "", "", fmt.Errorf("latex: unterminated %s...}", prefix)
	}
	return s[:j], strings.TrimSpace(s[j+1:]), nil
}
