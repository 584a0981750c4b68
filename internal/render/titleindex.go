package render

import (
	"bytes"
	"cmp"
	"context"
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
// author index was built from. TitleIndex sorts the works on each call;
// a caller that renders one set of works repeatedly sorts them once
// with SortTitles and writes them with WriteTitleIndex.
func TitleIndex(w io.Writer, works []*model.Work, coll collate.Options, opts Options) error {
	return WriteTitleIndex(context.Background(), w, func() TitleOrder { return SortTitles(works, coll) }, opts)
}

// WriteTitleIndex writes a title index of the works in the order that
// order returns. It calls order only for a supported format, so a
// rejected format costs no sort. A canceled ctx stops the index at the
// next section letter with ctx.Err().
func WriteTitleIndex(ctx context.Context, w io.Writer, order func() TitleOrder, opts Options) error {
	if opts.RunningHead == "" {
		opts.RunningHead = "TITLE INDEX"
	}
	var emit func(context.Context, io.Writer, TitleOrder, Options) error
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
	if err := ctx.Err(); err != nil {
		return err
	}
	return emit(ctx, w, order(), opts)
}

// TitleOrder is the filing order of a title index: each work with the
// section letter its title files under. It keeps no collation keys, so
// an entry costs 16 bytes.
type TitleOrder []titleEntry

type titleEntry struct {
	work   *model.Work
	letter byte
}

// SortTitles orders works by (title key, citation), stably, leaving the
// caller's slice untouched. Each title's collation key is built once
// and dropped after the sort.
func SortTitles(works []*model.Work, coll collate.Options) TitleOrder {
	type keyedWork struct {
		key []byte
		pos int
	}
	keyed := make([]keyedWork, len(works))
	for i, w := range works {
		keyed[i] = keyedWork{collate.KeyString(indexableTitle(w.Title), coll), i}
	}
	// The position tie-break makes the unstable sort stable.
	slices.SortFunc(keyed, func(a, b keyedWork) int {
		if c := bytes.Compare(a.key, b.key); c != 0 {
			return c
		}
		if c := works[a.pos].Citation.Compare(works[b.pos].Citation); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	order := make(TitleOrder, len(keyed))
	for i, k := range keyed {
		order[i] = titleEntry{works[k.pos], titleLetter(k.key)}
	}
	return order
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

// nextLetter reports whether e opens a section after the one lettered
// last, updating last; it checks ctx at each section, so a canceled
// render stops there with ctx.Err().
func nextLetter(ctx context.Context, e titleEntry, last *byte) (bool, error) {
	if e.letter == *last {
		return false, nil
	}
	*last = e.letter
	return true, ctx.Err()
}

func titleIndexText(ctx context.Context, w io.Writer, order TitleOrder, opts Options) error {
	p := newTextPager(w, opts)
	const citeW = 16
	titleW := (p.width - citeW - 2) * 3 / 5
	authorW := p.width - citeW - 2 - titleW
	var lastLetter byte
	var authors []byte
	for _, e := range order {
		work := e.work
		opens, err := nextLetter(ctx, e, &lastLetter)
		if err != nil {
			return err
		}
		if opens && !opts.NoSections {
			p.letterHeading(e.letter)
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

func titleIndexTSV(ctx context.Context, w io.Writer, order TitleOrder, _ Options) error {
	var b strings.Builder
	var lastLetter byte
	var authors []byte
	for _, e := range order {
		work := e.work
		if _, err := nextLetter(ctx, e, &lastLetter); err != nil {
			return err
		}
		authors = appendAuthors(authors[:0], work.Authors)
		fmt.Fprintf(&b, "%s\t%s\t%s\t%s\n", work.Title, authors, work.Kind, work.Citation)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func titleIndexMarkdown(ctx context.Context, w io.Writer, order TitleOrder, opts Options) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", opts.runningHead())
	if vol := opts.Volume.String(); vol != "" {
		fmt.Fprintf(&b, "\n_%s_\n", vol)
	}
	var lastLetter byte
	var authors []byte
	for _, e := range order {
		work := e.work
		opens, err := nextLetter(ctx, e, &lastLetter)
		if err != nil {
			return err
		}
		if opens && !opts.NoSections {
			fmt.Fprintf(&b, "\n## %c\n\n", e.letter)
		}
		authors = appendAuthors(authors[:0], work.Authors)
		fmt.Fprintf(&b, "- *%s* — %s, %s\n",
			mdEscape(work.Title), mdEscape(string(authors)), work.Citation)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
