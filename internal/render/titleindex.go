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

// TitleIndex renders the companion front-matter artifact: a title index,
// listing works alphabetized by title with their authors and citations.
// Only the Text, TSV and Markdown formats are supported; titles collate
// with the same options as author headings.
//
// Cumulative index issues traditionally print both artifacts back to
// back (AUTHOR INDEX, then TITLE INDEX); callers pass the same works the
// author index was built from.
func TitleIndex(w io.Writer, works []*model.Work, coll collate.Options, opts Options) error {
	if opts.RunningHead == "" {
		opts.RunningHead = "TITLE INDEX"
	}
	var emit func(io.Writer, []keyedWork, Options) error
	switch opts.Format {
	case Text:
		emit = titleIndexText
	case TSV:
		emit = titleIndexTSV
	case Markdown:
		emit = titleIndexMarkdown
	default:
		return fmt.Errorf("render: title index does not support format %s", opts.Format)
	}
	return emit(w, sortByTitle(works, coll), opts)
}

// keyedWork pairs a work with the collation key of its indexable title,
// built once per render rather than once per sort comparison.
type keyedWork struct {
	key  []byte
	work *model.Work
}

// sortByTitle orders works by (title key, citation), stably, leaving the
// caller's slice untouched.
func sortByTitle(works []*model.Work, coll collate.Options) []keyedWork {
	sorted := make([]keyedWork, len(works))
	for i, w := range works {
		sorted[i] = keyedWork{collate.KeyString(indexableTitle(w.Title), coll), w}
	}
	sort.SliceStable(sorted, func(i, j int) bool {
		if c := bytes.Compare(sorted[i].key, sorted[j].key); c != 0 {
			return c < 0
		}
		return sorted[i].work.Citation.Compare(sorted[j].work.Citation) < 0
	})
	return sorted
}

// indexableTitle drops leading articles ("A", "An", "The") the way index
// compilers file titles.
func indexableTitle(title string) string {
	for _, art := range [...]string{"The ", "A ", "An ", "the ", "a ", "an "} {
		if strings.HasPrefix(title, art) && len(title) > len(art) {
			return title[len(art):]
		}
	}
	return title
}

// titleLetter returns the section letter a title key files under. The
// first ASCII letter or digit of a key always lies in its primary tier:
// the later tiers hold the same text unfolded, so they add none.
func titleLetter(key []byte) byte {
	for _, c := range key {
		if c >= 'a' && c <= 'z' {
			return c - 'a' + 'A'
		}
		if c >= '0' && c <= '9' {
			return '#'
		}
	}
	return '#'
}

func titleIndexText(w io.Writer, works []keyedWork, opts Options) error {
	width := opts.pageWidth()
	citeW := 16
	titleW := (width - citeW - 2) * 3 / 5
	authorW := width - citeW - 2 - titleW
	p := &textPager{w: w, opts: opts}

	var lastLetter byte
	for _, kw := range works {
		work := kw.work
		if !opts.NoSections {
			if l := titleLetter(kw.key); l != lastLetter {
				lastLetter = l
				p.emit("")
				p.emit(center(fmt.Sprintf("— %c —", l), width))
				p.emit("")
			}
		}
		authors := make([]string, len(work.Authors))
		for i, a := range work.Authors {
			authors[i] = a.Display()
		}
		titleLines := wrap(work.Title, titleW)
		authorLines := wrap(strings.Join(authors, "; "), authorW)
		n := max(len(titleLines), len(authorLines))
		for i := 0; i < n; i++ {
			t, a, c := "", "", ""
			if i < len(titleLines) {
				t = titleLines[i]
			}
			if i < len(authorLines) {
				a = authorLines[i]
			}
			if i == 0 {
				c = work.Citation.String()
			}
			p.emit(fmt.Sprintf("%-*s %-*s %*s", titleW, t, authorW, a, citeW, c))
		}
	}
	if p.err != nil {
		return fmt.Errorf("render: title index: %w", p.err)
	}
	if p.line == 0 && p.page == 0 {
		p.header()
	}
	return p.err
}

func titleIndexTSV(w io.Writer, works []keyedWork, _ Options) error {
	var b strings.Builder
	for _, kw := range works {
		work := kw.work
		authors := make([]string, len(work.Authors))
		for i, a := range work.Authors {
			authors[i] = a.Display()
		}
		fmt.Fprintf(&b, "%s\t%s\t%s\t%s\n",
			work.Title, strings.Join(authors, "; "), work.Kind, work.Citation)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func titleIndexMarkdown(w io.Writer, works []keyedWork, opts Options) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", opts.runningHead())
	if vol := opts.Volume.String(); vol != "" {
		fmt.Fprintf(&b, "\n_%s_\n", vol)
	}
	var lastLetter byte
	for _, kw := range works {
		work := kw.work
		if !opts.NoSections {
			if l := titleLetter(kw.key); l != lastLetter {
				lastLetter = l
				fmt.Fprintf(&b, "\n## %c\n\n", l)
			}
		}
		authors := make([]string, len(work.Authors))
		for i, a := range work.Authors {
			authors[i] = a.Display()
		}
		fmt.Fprintf(&b, "- *%s* — %s, %s\n",
			mdEscape(work.Title), mdEscape(strings.Join(authors, "; ")), work.Citation)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
