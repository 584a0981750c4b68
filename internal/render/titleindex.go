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
	slices.SortStableFunc(sorted, func(a, b keyedWork) int {
		if c := bytes.Compare(a.key, b.key); c != 0 {
			return c
		}
		return a.work.Citation.Compare(b.work.Citation)
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
	p := newTextPager(w, opts)
	const citeW = 16
	titleW := (p.width - citeW - 2) * 3 / 5
	authorW := p.width - citeW - 2 - titleW
	var lastLetter byte
	var authors []byte
	for _, kw := range works {
		work := kw.work
		if !opts.NoSections {
			if l := titleLetter(kw.key); l != lastLetter {
				lastLetter = l
				p.letterHeading(l)
			}
		}
		authors = appendAuthors(authors[:0], work.Authors)
		p.left = appendWrap(p.left[:0], work.Title, titleW)
		p.right = appendWrap(p.right[:0], string(authors), authorW)
		p.row(p.left, p.right, titleW, authorW, citeW, work.Citation)
	}
	return p.close("title index")
}

// appendAuthors appends the works' author headings joined by "; ".
func appendAuthors(dst []byte, authors []model.Author) []byte {
	for i, a := range authors {
		if i > 0 {
			dst = append(dst, "; "...)
		}
		dst = a.AppendDisplay(dst)
	}
	return dst
}

func titleIndexTSV(w io.Writer, works []keyedWork, _ Options) error {
	var b strings.Builder
	var authors []byte
	for _, kw := range works {
		work := kw.work
		authors = appendAuthors(authors[:0], work.Authors)
		fmt.Fprintf(&b, "%s\t%s\t%s\t%s\n", work.Title, authors, work.Kind, work.Citation)
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
	var authors []byte
	for _, kw := range works {
		work := kw.work
		if !opts.NoSections {
			if l := titleLetter(kw.key); l != lastLetter {
				lastLetter = l
				fmt.Fprintf(&b, "\n## %c\n\n", l)
			}
		}
		authors = appendAuthors(authors[:0], work.Authors)
		fmt.Fprintf(&b, "- *%s* — %s, %s\n",
			mdEscape(work.Title), mdEscape(string(authors)), work.Citation)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
