package render

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/collate"
	"repro/internal/model"
)

// SubjectIndex renders the third front-matter artifact: works grouped
// under their editorial subject headings, headings alphabetized by the
// given collation, works within a heading in citation order. Works with
// no subjects are filed under "(unclassified)". Text, TSV and Markdown
// formats are supported.
func SubjectIndex(w io.Writer, works []*model.Work, coll collate.Options, opts Options) error {
	if opts.RunningHead == "" {
		opts.RunningHead = "SUBJECT INDEX"
	}
	var emit func(io.Writer, []subjectGroup, Options) error
	switch opts.Format {
	case Text:
		emit = subjectIndexText
	case TSV:
		emit = subjectIndexTSV
	case Markdown:
		emit = subjectIndexMarkdown
	default:
		return fmt.Errorf("render: subject index does not support format %s", opts.Format)
	}
	return emit(w, groupBySubject(works, coll), opts)
}

// Unclassified is the heading for works without subjects.
const Unclassified = "(unclassified)"

type subjectGroup struct {
	subject string
	key     []byte // collation key of subject, built once per heading
	works   []*model.Work
}

// unclassified files a work without subjects.
var unclassified = []string{Unclassified}

func groupBySubject(works []*model.Work, coll collate.Options) []subjectGroup {
	byKey := map[string]*subjectGroup{}
	for _, w := range works {
		subjects := w.Subjects
		if len(subjects) == 0 {
			subjects = unclassified
		}
		for _, s := range subjects {
			g, ok := byKey[s]
			if !ok {
				g = &subjectGroup{subject: s, key: collate.KeyString(s, coll)}
				byKey[s] = g
			}
			g.works = append(g.works, w)
		}
	}
	groups := make([]subjectGroup, 0, len(byKey))
	for _, g := range byKey {
		slices.SortStableFunc(g.works, func(a, b *model.Work) int {
			return a.Citation.Compare(b.Citation)
		})
		groups = append(groups, *g)
	}
	slices.SortFunc(groups, func(a, b subjectGroup) int {
		return bytes.Compare(a.key, b.key)
	})
	return groups
}

func subjectIndexText(w io.Writer, groups []subjectGroup, opts Options) error {
	p := newTextPager(w, opts)
	const citeW = 16
	lineW := p.width - citeW - 3
	var entry []byte
	for _, g := range groups {
		p.emit("")
		p.emit(strings.ToUpper(g.subject))
		for _, work := range g.works {
			entry = append(append(entry[:0], work.Title...), " — "...)
			entry = appendAuthors(entry, work.Authors)
			p.left = appendWrap(p.left[:0], string(entry), lineW)
			for i, line := range p.left {
				p.startLine()
				p.buf = append(appendPadded(append(p.buf, "  "...), line, lineW), ' ')
				p.citeCell(i == 0, work.Citation, citeW-1)
				p.endLine()
			}
		}
	}
	return p.close("subject index")
}

func subjectIndexTSV(w io.Writer, groups []subjectGroup, _ Options) error {
	var b strings.Builder
	var authors []byte
	for _, g := range groups {
		for _, work := range g.works {
			authors = appendAuthors(authors[:0], work.Authors)
			fmt.Fprintf(&b, "%s\t%s\t%s\t%s\n", g.subject, work.Title, authors, work.Citation)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func subjectIndexMarkdown(w io.Writer, groups []subjectGroup, opts Options) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", opts.runningHead())
	if vol := opts.Volume.String(); vol != "" {
		fmt.Fprintf(&b, "\n_%s_\n", vol)
	}
	var authors []byte
	for _, g := range groups {
		fmt.Fprintf(&b, "\n## %s\n\n", mdEscape(g.subject))
		for _, work := range g.works {
			authors = appendAuthors(authors[:0], work.Authors)
			fmt.Fprintf(&b, "- *%s* — %s, %s\n",
				mdEscape(work.Title), mdEscape(string(authors)), work.Citation)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
