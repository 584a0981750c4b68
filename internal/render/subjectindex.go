package render

import (
	"bytes"
	"context"
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
// formats are supported. SubjectIndex groups the works on each call; a
// caller that renders one set of works repeatedly groups them once with
// GroupSubjects and writes them with WriteSubjectIndex.
func SubjectIndex(w io.Writer, works []*model.Work, coll collate.Options, opts Options) error {
	return WriteSubjectIndex(context.Background(), w, func() SubjectGroups { return GroupSubjects(works, coll) }, opts)
}

// WriteSubjectIndex writes a subject index of the groups that groups
// returns. It calls groups only for a supported format, so a rejected
// format costs no grouping. A canceled ctx stops the index at the next
// subject heading with ctx.Err().
func WriteSubjectIndex(ctx context.Context, w io.Writer, groups func() SubjectGroups, opts Options) error {
	if opts.RunningHead == "" {
		opts.RunningHead = "SUBJECT INDEX"
	}
	var emit func(context.Context, io.Writer, SubjectGroups, Options) error
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
	if err := ctx.Err(); err != nil {
		return err
	}
	return emit(ctx, w, groups(), opts)
}

// Unclassified is the heading for works without subjects.
const Unclassified = "(unclassified)"

// SubjectGroups is a subject index's filing order: its headings in
// collation order, each with its works in citation order. It keeps no
// collation keys.
type SubjectGroups []subjectGroup

type subjectGroup struct {
	subject string
	works   []*model.Work
}

// unclassified files a work without subjects.
var unclassified = []string{Unclassified}

// GroupSubjects files works under their subject headings, leaving the
// caller's slice untouched. Each heading's collation key is built once
// and dropped after the sort.
func GroupSubjects(works []*model.Work, coll collate.Options) SubjectGroups {
	type keyedGroup struct {
		key []byte
		*subjectGroup
	}
	byKey := map[string]*subjectGroup{}
	for _, w := range works {
		subjects := w.Subjects
		if len(subjects) == 0 {
			subjects = unclassified
		}
		for _, s := range subjects {
			g, ok := byKey[s]
			if !ok {
				g = &subjectGroup{subject: s}
				byKey[s] = g
			}
			g.works = append(g.works, w)
		}
	}
	keyed := make([]keyedGroup, 0, len(byKey))
	for _, g := range byKey {
		slices.SortStableFunc(g.works, func(a, b *model.Work) int {
			return a.Citation.Compare(b.Citation)
		})
		keyed = append(keyed, keyedGroup{collate.KeyString(g.subject, coll), g})
	}
	slices.SortFunc(keyed, func(a, b keyedGroup) int {
		return bytes.Compare(a.key, b.key)
	})
	groups := make(SubjectGroups, len(keyed))
	for i, k := range keyed {
		groups[i] = *k.subjectGroup
	}
	return groups
}

func subjectIndexText(ctx context.Context, w io.Writer, groups SubjectGroups, opts Options) error {
	p := newTextPager(w, opts)
	const citeW = 16
	lineW := p.width - citeW - 3
	var entry []byte
	for _, g := range groups {
		if err := ctx.Err(); err != nil {
			return err
		}
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

func subjectIndexTSV(ctx context.Context, w io.Writer, groups SubjectGroups, _ Options) error {
	var b strings.Builder
	var authors []byte
	for _, g := range groups {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, work := range g.works {
			authors = appendAuthors(authors[:0], work.Authors)
			fmt.Fprintf(&b, "%s\t%s\t%s\t%s\n", g.subject, work.Title, authors, work.Citation)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func subjectIndexMarkdown(ctx context.Context, w io.Writer, groups SubjectGroups, opts Options) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", opts.runningHead())
	if vol := opts.Volume.String(); vol != "" {
		fmt.Fprintf(&b, "\n_%s_\n", vol)
	}
	var authors []byte
	for _, g := range groups {
		if err := ctx.Err(); err != nil {
			return err
		}
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
