package render

import (
	"bytes"
	"fmt"
	"io"
	"sort"
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

func groupBySubject(works []*model.Work, coll collate.Options) []subjectGroup {
	byKey := map[string]*subjectGroup{}
	for _, w := range works {
		subjects := w.Subjects
		if len(subjects) == 0 {
			subjects = []string{Unclassified}
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
		sort.SliceStable(g.works, func(i, j int) bool {
			return g.works[i].Citation.Compare(g.works[j].Citation) < 0
		})
		groups = append(groups, *g)
	}
	sort.Slice(groups, func(i, j int) bool {
		return bytes.Compare(groups[i].key, groups[j].key) < 0
	})
	return groups
}

func subjectIndexText(w io.Writer, groups []subjectGroup, opts Options) error {
	width := opts.pageWidth()
	citeW := 16
	bodyW := width - citeW - 1
	p := &textPager{w: w, opts: opts}
	for _, g := range groups {
		p.emit("")
		p.emit(strings.ToUpper(g.subject))
		for _, work := range g.works {
			authors := make([]string, len(work.Authors))
			for i, a := range work.Authors {
				authors[i] = a.Display()
			}
			entry := fmt.Sprintf("%s — %s", work.Title, strings.Join(authors, "; "))
			lines := wrap(entry, bodyW-2)
			for i, line := range lines {
				cite := ""
				if i == 0 {
					cite = work.Citation.String()
				}
				p.emit(fmt.Sprintf("  %-*s %*s", bodyW-2, line, citeW-1, cite))
			}
		}
	}
	if p.err != nil {
		return fmt.Errorf("render: subject index: %w", p.err)
	}
	if p.line == 0 && p.page == 0 {
		p.header()
	}
	return p.err
}

func subjectIndexTSV(w io.Writer, groups []subjectGroup, _ Options) error {
	var b strings.Builder
	for _, g := range groups {
		for _, work := range g.works {
			authors := make([]string, len(work.Authors))
			for i, a := range work.Authors {
				authors[i] = a.Display()
			}
			fmt.Fprintf(&b, "%s\t%s\t%s\t%s\n",
				g.subject, work.Title, strings.Join(authors, "; "), work.Citation)
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
	for _, g := range groups {
		fmt.Fprintf(&b, "\n## %s\n\n", mdEscape(g.subject))
		for _, work := range g.works {
			authors := make([]string, len(work.Authors))
			for i, a := range work.Authors {
				authors[i] = a.Display()
			}
			fmt.Fprintf(&b, "- *%s* — %s, %s\n",
				mdEscape(work.Title), mdEscape(strings.Join(authors, "; ")), work.Citation)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
