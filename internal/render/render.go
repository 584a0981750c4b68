// Package render turns an author index into its printed forms: the
// classic three-column text pages the front-matter artifact uses, plus
// Markdown, CSV, JSON and a tab-separated machine format that round-trips
// through the ingest package.
package render

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/trace"
)

// Format selects the output encoding.
type Format int

// Supported formats.
const (
	Text Format = iota
	TSV
	Markdown
	CSV
	JSON
	HTMLPage
)

var formatNames = map[string]Format{
	"text": Text, "tsv": TSV, "markdown": Markdown, "md": Markdown,
	"csv": CSV, "json": JSON, "html": HTMLPage,
}

// ParseFormat converts a format name ("text", "tsv", "markdown", "csv",
// "json") into a Format.
func ParseFormat(s string) (Format, error) {
	f, ok := formatNames[strings.ToLower(s)]
	if !ok {
		return 0, fmt.Errorf("render: unknown format %q", s)
	}
	return f, nil
}

// String names the format.
func (f Format) String() string {
	switch f {
	case Text:
		return "text"
	case TSV:
		return "tsv"
	case Markdown:
		return "markdown"
	case CSV:
		return "csv"
	case JSON:
		return "json"
	case HTMLPage:
		return "html"
	}
	return fmt.Sprintf("format(%d)", int(f))
}

// Options configures rendering. The zero value renders unpaginated text
// at 78 columns with section headings.
type Options struct {
	Format Format
	// Volume labels the running head ("Proc. VLDB vol. 26 (2000)").
	Volume model.Volume
	// RunningHead is the page header title; default "AUTHOR INDEX".
	RunningHead string
	// PageWidth is the text page width in characters (default 78, min 40).
	PageWidth int
	// PageLength paginates text output at this many body lines per page;
	// zero disables pagination.
	PageLength int
	// NoSections suppresses the per-letter headings in text/Markdown.
	NoSections bool
	// Statistics appends the contributor-summary appendix (Text,
	// Markdown and JSON formats). The facade fills Appendix from its
	// metrics tracker when this is set.
	Statistics bool
	// StatsLimit caps the ranked contributor table (default 10).
	StatsLimit int
	// Appendix is the statistics payload rendered when non-nil. Callers
	// going through the facade set Statistics instead and let it build
	// this; direct render callers supply it themselves (see
	// BuildStatistics).
	Appendix *Statistics
	// Network appends the collaboration-network appendix (Text, Markdown
	// and JSON formats). The facade fills NetworkAppendix from its
	// coauthorship graph when this is set.
	Network bool
	// NetworkLimit caps the ranked centrality table (default 10).
	NetworkLimit int
	// NetworkAppendix is the network payload rendered when non-nil;
	// direct render callers supply it themselves (see BuildNetwork).
	NetworkAppendix *NetworkStats
}

func (o Options) runningHead() string {
	if o.RunningHead == "" {
		return "AUTHOR INDEX"
	}
	return o.RunningHead
}

func (o Options) pageWidth() int {
	if o.PageWidth <= 0 {
		return 78
	}
	if o.PageWidth < 40 {
		return 40
	}
	return o.PageWidth
}

// Render writes the index to w in the selected format.
func Render(w io.Writer, ix *core.Index, opts Options) error {
	return RenderSectionsCtx(context.Background(), w, ix.Sections(), opts)
}

// RenderSectionsCtx renders collected sections in the selected format
// under one render span (text output gets one child span per letter
// section). The facade hands over the index's sections in print order.
// Cancellation is checked
// before encoding and, for text, between letter sections: a client
// that hung up stops a large render early with ctx.Err().
func RenderSectionsCtx(ctx context.Context, w io.Writer, sections []core.Section, opts Options) error {
	ctx, sp := trace.StartSpan(ctx, "render")
	sp.SetAttr("format", opts.Format.String())
	defer sp.End()
	if err := ctx.Err(); err != nil {
		return err
	}
	return encodeSections(ctx, w, sections, opts)
}

// encodeSections dispatches collected sections to the per-format
// encoders, timing non-text encodes under one render.encode span.
func encodeSections(ctx context.Context, w io.Writer, sections []core.Section, opts Options) error {
	if opts.Format == Text {
		return renderText(ctx, w, sections, opts)
	}
	_, enc := trace.StartSpan(ctx, "render.encode")
	defer enc.End()
	switch opts.Format {
	case TSV:
		return renderTSV(w, sections)
	case Markdown:
		return renderMarkdown(w, sections, opts)
	case CSV:
		return renderCSV(w, sections)
	case JSON:
		return renderJSON(w, sections, opts)
	case HTMLPage:
		return htmlSections(w, sections, opts)
	}
	return fmt.Errorf("render: unknown format %d", int(opts.Format))
}

// ---- text ----

// textPager lays out text pages. It appends every line, and a page
// header before the first line of each page, to one buffer it owns, and
// writes the buffer to w each time it passes flushAt bytes, so a build
// writes each line once and allocates nothing per line.
type textPager struct {
	w          io.Writer
	opts       Options
	width      int
	rule       string // the header's horizontal rule, one page wide
	line, page int
	buf        []byte
	err        error
	// left and right hold a row's wrapped columns, reused row to row.
	left, right []string
}

// flushAt is the buffered text a pager writes out at once. Its buffer
// holds that much plus room for the line that crosses it.
const flushAt = 32 << 10

func newTextPager(w io.Writer, opts Options) *textPager {
	width := opts.pageWidth()
	return &textPager{
		w: w, opts: opts, width: width,
		rule: strings.Repeat("─", width),
		buf:  make([]byte, 0, flushAt+4<<10),
	}
}

// startLine begins a body line, after the page header when the line
// opens a page.
func (p *textPager) startLine() {
	if p.line == 0 {
		p.header()
	}
}

// endLine ends the body line appended since startLine. A page that
// reaches PageLength lines closes with a blank line.
func (p *textPager) endLine() {
	p.buf = append(p.buf, '\n')
	p.line++
	if p.opts.PageLength > 0 && p.line >= p.opts.PageLength {
		p.line = 0
		p.buf = append(p.buf, '\n')
	}
	if len(p.buf) >= flushAt {
		p.flush()
	}
}

// flush writes the buffered text; after a write error it drops it.
func (p *textPager) flush() {
	if p.err == nil && len(p.buf) > 0 {
		_, p.err = p.w.Write(p.buf)
	}
	p.buf = p.buf[:0]
}

// close finishes the text, giving an empty one its page header, writes
// what remains and reports the first write error against artifact.
func (p *textPager) close(artifact string) error {
	if p.line == 0 && p.page == 0 {
		p.header()
	}
	p.flush()
	if p.err != nil {
		return fmt.Errorf("render: %s: %w", artifact, p.err)
	}
	return nil
}

func (p *textPager) emit(s string) {
	p.startLine()
	p.buf = append(p.buf, s...)
	p.endLine()
}

func (p *textPager) emitCentered(s string) {
	p.startLine()
	p.buf = appendCentered(p.buf, s, p.width)
	p.endLine()
}

// letterHeading emits a section's "— A —" heading between blank lines.
func (p *textPager) letterHeading(letter byte) {
	p.emit("")
	p.emitCentered("— " + string(rune(letter)) + " —")
	p.emit("")
}

func (p *textPager) header() {
	p.page++
	p.buf = append(appendCentered(p.buf, p.opts.runningHead(), p.width), '\n')
	if vol := p.opts.Volume.String(); vol != "" {
		p.buf = append(appendCentered(p.buf, vol+" — page "+strconv.Itoa(p.page), p.width), '\n')
	}
	p.buf = append(append(p.buf, p.rule...), '\n')
}

// row emits one table row: the wrapped columns left and right side by
// side, each padded to its width, then a column citeW wide holding cite
// right-aligned on the row's first line.
func (p *textPager) row(left, right []string, leftW, rightW, citeW int, cite model.Citation) {
	for i := range max(len(left), len(right)) {
		p.startLine()
		p.buf = append(appendPadded(p.buf, lineAt(left, i), leftW), ' ')
		p.buf = append(appendPadded(p.buf, lineAt(right, i), rightW), ' ')
		p.citeCell(i == 0, cite, citeW)
		p.endLine()
	}
}

// citeCell appends cite right-aligned in citeW columns when first is
// set, and blanks otherwise.
func (p *textPager) citeCell(first bool, cite model.Citation, citeW int) {
	mark := len(p.buf)
	if first {
		p.buf = cite.AppendTo(p.buf)
	}
	p.buf = alignRight(p.buf, mark, citeW)
}

// table emits an aligned table: each column as wide as its widest cell
// in bytes, columns two spaces apart, the second left-aligned and the
// others right-aligned, trailing blanks trimmed. A table with no rows
// shows empty under its header.
func (p *textPager) table(header []string, rows [][]string, empty string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			widths[i] = max(widths[i], len(c))
		}
	}
	p.tableRow(header, widths)
	for _, r := range rows {
		p.tableRow(r, widths)
	}
	if len(rows) == 0 {
		p.emit(empty)
	}
}

func (p *textPager) tableRow(cells []string, widths []int) {
	p.startLine()
	mark := len(p.buf)
	for i, c := range cells {
		if i > 0 {
			p.buf = append(p.buf, "  "...)
		}
		if i == 1 {
			p.buf = appendPadded(p.buf, c, widths[i])
		} else {
			cell := len(p.buf)
			p.buf = alignRight(append(p.buf, c...), cell, widths[i])
		}
	}
	for len(p.buf) > mark && p.buf[len(p.buf)-1] == ' ' {
		p.buf = p.buf[:len(p.buf)-1]
	}
	p.endLine()
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return ""
}

// blanks is a run of spaces to pad from.
const blanks = "                                                                "

func appendBlanks(dst []byte, n int) []byte {
	for ; n > len(blanks); n -= len(blanks) {
		dst = append(dst, blanks...)
	}
	return append(dst, blanks[:max(n, 0)]...)
}

// appendPadded appends s left-aligned in width columns: followed by
// blanks up to width runes, never truncated, as "%-*s" formats it.
func appendPadded(dst []byte, s string, width int) []byte {
	return appendBlanks(append(dst, s...), width-utf8.RuneCountInString(s))
}

// alignRight right-aligns the text appended to dst since mark in width
// columns: blanks go in front of it up to width runes, never truncating,
// as "%*s" formats it.
func alignRight(dst []byte, mark, width int) []byte {
	pad := width - utf8.RuneCount(dst[mark:])
	if pad <= 0 {
		return dst
	}
	end := len(dst)
	dst = appendBlanks(dst, pad)
	copy(dst[mark+pad:], dst[mark:end])
	for i := mark; i < mark+pad; i++ {
		dst[i] = ' '
	}
	return dst
}

// appendCentered appends s centered in width columns by its byte length,
// unpadded when it is as wide as the page.
func appendCentered(dst []byte, s string, width int) []byte {
	if len(s) < width {
		dst = appendBlanks(dst, (width-len(s))/2)
	}
	return append(dst, s...)
}

func renderText(ctx context.Context, w io.Writer, sections []core.Section, opts Options) error {
	parent := trace.FromContext(ctx)
	p := newTextPager(w, opts)
	// Column plan: author | gap | title | gap | citation.
	const citeW = 16
	authorW := (p.width - citeW - 2) * 2 / 5
	titleW := p.width - citeW - 2 - authorW
	for _, sec := range sections {
		// A disconnected client stops a large text render at the next
		// section boundary instead of formatting pages nobody will read.
		if err := ctx.Err(); err != nil {
			return err
		}
		secSpan := parent.StartChild("render.section " + string(sec.Letter))
		secSpan.SetInt("entries", int64(len(sec.Entries)))
		if !opts.NoSections {
			p.letterHeading(sec.Letter)
		}
		for _, e := range sec.Entries {
			// The heading wraps once for all of its rows.
			p.left = appendWrap(p.left[:0], e.Author.Display(), authorW)
			for _, ref := range e.SeeAlso {
				p.right = appendWrap(p.right[:0], "See also: "+ref.Display(), titleW)
				p.row(p.left, p.right, authorW, titleW, citeW, model.Citation{})
			}
			for _, work := range e.Works {
				p.right = appendWrap(p.right[:0], work.Title, titleW)
				p.row(p.left, p.right, authorW, titleW, citeW, work.Citation)
			}
		}
		secSpan.End()
	}
	if opts.Appendix != nil {
		appendTextStats(p, opts.Appendix)
	}
	if opts.NetworkAppendix != nil {
		appendTextNetwork(p, opts.NetworkAppendix)
	}
	return p.close("text")
}

// wrap greedily wraps s into lines at most width runes wide (a width
// below 1 counts as 1), hard-breaking words longer than the width; s
// without words gives one empty line. Words are what strings.Fields
// splits s into, and a line joins its words with single spaces.
//
// A line whose words are separated in s by exactly one ASCII space each
// is returned as a substring of s, with no copy. A line is built afresh
// only when a gap inside it is other whitespace (a tab, a run of spaces,
// U+0085, U+00A0, U+2003, ...) or when it holds a hard-broken piece of a
// word that is not valid UTF-8: such pieces carry U+FFFD for each
// invalid byte, as a []rune round trip writes them.
func wrap(s string, width int) []string { return appendWrap(nil, s, width) }

// appendWrap appends the lines wrap returns to lines, in one pass over
// s that counts each rune once.
func appendWrap(lines []string, s string, width int) []string {
	width = max(width, 1)
	n0 := len(lines)
	// The line being filled spans s[start:end] and is runes wide; runes
	// is 0 while there is none. It is rebuilt rather than sliced from s
	// when a gap in it is not one space, or when it opens with the tail
	// of a hard-broken invalid word (fixFirst).
	var start, end, runes int
	var rebuild, fixFirst bool
	flush := func() {
		if runes == 0 {
			return
		}
		if rebuild {
			lines = append(lines, joinWords(s[start:end], fixFirst))
		} else {
			lines = append(lines, s[start:end])
		}
		runes = 0
	}
	for i := 0; ; {
		ws, we, n := nextWord(s, i)
		if ws == len(s) {
			break
		}
		single := ws-i == 1 && s[i] == ' '
		i = we
		// The pieces of a broken word that is not valid UTF-8 carry
		// U+FFFD for each invalid byte.
		fix := n > width && !utf8.ValidString(s[ws:we])
		for n > width {
			flush()
			cut := ws + runeOffset(s[ws:we], width)
			if fix {
				lines = append(lines, string([]rune(s[ws:cut])))
			} else {
				lines = append(lines, s[ws:cut])
			}
			ws, n = cut, n-width
		}
		if runes > 0 && runes+1+n <= width {
			end, runes, rebuild = we, runes+1+n, rebuild || !single
			continue
		}
		flush()
		start, end, runes, rebuild, fixFirst = ws, we, n, fix, fix
	}
	flush()
	if len(lines) == n0 {
		lines = append(lines, "")
	}
	return lines
}

// nextWord finds the first word of s at or after byte i, split where
// strings.Fields splits: its bounds and its rune count. ws is len(s)
// when no word remains. ASCII bytes are tested against the six ASCII
// spaces directly; only a byte of 0x80 or above is decoded and passed to
// unicode.IsSpace, and an invalid byte counts as one rune, as range
// counts it.
func nextWord(s string, i int) (ws, we, runes int) {
	ws = len(s)
	for j := i; j < len(s); {
		c, size := s[j], 1
		space := c == ' ' || '\t' <= c && c <= '\r'
		if c >= utf8.RuneSelf {
			var r rune
			r, size = utf8.DecodeRuneInString(s[j:])
			space = unicode.IsSpace(r)
		}
		switch {
		case !space:
			if runes == 0 {
				ws = j
			}
			runes++
		case runes > 0:
			return ws, j, runes
		}
		j += size
	}
	return ws, len(s), runes
}

// runeOffset returns the byte offset just past the first n runes of s.
func runeOffset(s string, n int) int {
	for i := range s {
		if n == 0 {
			return i
		}
		n--
	}
	return len(s)
}

// joinWords joins the words of seg with single spaces; with fixFirst
// set, the first word's invalid bytes become U+FFFD.
func joinWords(seg string, fixFirst bool) string {
	words := strings.Fields(seg)
	if fixFirst {
		words[0] = string([]rune(words[0]))
	}
	return strings.Join(words, " ")
}

// ---- TSV (machine round-trip format) ----

// renderTSV emits one posting per line:
//
//	author display <TAB> title <TAB> kind <TAB> vol:page (year) [<TAB> subjects]
//
// The optional fifth column carries subject headings joined by " | ".
// Cross-references are encoded with the pseudo-kind "see-also" and the
// target heading in the title column.
func renderTSV(w io.Writer, sections []core.Section) error {
	var b strings.Builder
	for _, sec := range sections {
		for _, e := range sec.Entries {
			name := e.Author.Display()
			for _, ref := range e.SeeAlso {
				fmt.Fprintf(&b, "%s\t%s\tsee-also\t\n", name, ref.Display())
			}
			for _, work := range e.Works {
				fmt.Fprintf(&b, "%s\t%s\t%s\t%s", name, work.Title, work.Kind, work.Citation)
				if len(work.Subjects) > 0 {
					fmt.Fprintf(&b, "\t%s", strings.Join(work.Subjects, " | "))
				}
				b.WriteByte('\n')
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// ---- Markdown ----

func renderMarkdown(w io.Writer, sections []core.Section, opts Options) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", opts.runningHead())
	if vol := opts.Volume.String(); vol != "" {
		fmt.Fprintf(&b, "\n_%s_\n", vol)
	}
	for _, sec := range sections {
		if !opts.NoSections {
			fmt.Fprintf(&b, "\n## %c\n\n", sec.Letter)
		}
		for _, e := range sec.Entries {
			name := e.Author.Display()
			for _, ref := range e.SeeAlso {
				fmt.Fprintf(&b, "- **%s** — *see also* %s\n", mdEscape(name), mdEscape(ref.Display()))
			}
			for _, work := range e.Works {
				fmt.Fprintf(&b, "- **%s** — %s, %s\n", mdEscape(name), mdEscape(work.Title), work.Citation)
			}
		}
	}
	if opts.Appendix != nil {
		appendMarkdownStats(&b, opts.Appendix)
	}
	if opts.NetworkAppendix != nil {
		appendMarkdownNetwork(&b, opts.NetworkAppendix)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// mdEscaper backslash-escapes Markdown emphasis, code and link syntax.
var mdEscaper = strings.NewReplacer("*", `\*`, "_", `\_`, "`", "\\`", "[", `\[`, "]", `\]`)

func mdEscape(s string) string {
	return mdEscaper.Replace(s)
}

// markdownTable writes an appendix section: its heading, its summary
// line, then the table with every body cell escaped.
func markdownTable(b *strings.Builder, heading, summary string, header []string, rows [][]string) {
	fmt.Fprintf(b, "\n## %s\n\n%s\n\n", heading, summary)
	fmt.Fprintf(b, "| %s |\n", strings.Join(header, " | "))
	b.WriteString("|" + strings.Repeat(" --- |", len(header)) + "\n")
	for _, r := range rows {
		for i, c := range r {
			r[i] = mdEscape(c)
		}
		fmt.Fprintf(b, "| %s |\n", strings.Join(r, " | "))
	}
}

// ---- CSV ----

// csvHeader is the column layout shared with the ingest package;
// subjects are joined with " | " in the final column.
var csvHeader = []string{
	"family", "given", "particle", "suffix", "student",
	"title", "kind", "volume", "page", "year", "subjects",
}

func renderCSV(w io.Writer, sections []core.Section) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("render: csv: %w", err)
	}
	for _, sec := range sections {
		for _, e := range sec.Entries {
			a := e.Author
			for _, work := range e.Works {
				rec := []string{
					a.Family, a.Given, a.Particle, a.Suffix,
					strconv.FormatBool(a.Student),
					work.Title, work.Kind.String(),
					strconv.Itoa(work.Citation.Volume),
					strconv.Itoa(work.Citation.Page),
					strconv.Itoa(work.Citation.Year),
					strings.Join(work.Subjects, " | "),
				}
				if err := cw.Write(rec); err != nil {
					return fmt.Errorf("render: csv: %w", err)
				}
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("render: csv: %w", err)
	}
	return nil
}

// ---- JSON ----

// jsonDoc mirrors the section structure for the JSON encoding.
type jsonDoc struct {
	Sections []jsonSection `json:"sections"`
	// Statistics carries the contributor appendix when requested.
	Statistics *Statistics `json:"statistics,omitempty"`
	// Network carries the collaboration-network appendix when requested.
	Network *NetworkStats `json:"network,omitempty"`
}

type jsonSection struct {
	Letter  string      `json:"letter"`
	Entries []jsonEntry `json:"entries"`
}

type jsonEntry struct {
	Author  jsonAuthor `json:"author"`
	Works   []jsonWork `json:"works,omitempty"`
	SeeAlso []string   `json:"seeAlso,omitempty"`
}

type jsonAuthor struct {
	Family   string `json:"family"`
	Given    string `json:"given,omitempty"`
	Particle string `json:"particle,omitempty"`
	Suffix   string `json:"suffix,omitempty"`
	Student  bool   `json:"student,omitempty"`
}

type jsonWork struct {
	Title    string `json:"title"`
	Kind     string `json:"kind"`
	Citation string `json:"citation"`
}

func renderJSON(w io.Writer, sections []core.Section, opts Options) error {
	doc := jsonDoc{
		Sections:   make([]jsonSection, 0, len(sections)),
		Statistics: opts.Appendix,
		Network:    opts.NetworkAppendix,
	}
	for _, sec := range sections {
		js := jsonSection{Letter: string(sec.Letter)}
		for _, e := range sec.Entries {
			je := jsonEntry{Author: jsonAuthor{
				Family:   e.Author.Family,
				Given:    e.Author.Given,
				Particle: e.Author.Particle,
				Suffix:   e.Author.Suffix,
				Student:  e.Author.Student,
			}}
			for _, ref := range e.SeeAlso {
				je.SeeAlso = append(je.SeeAlso, ref.Display())
			}
			for _, work := range e.Works {
				je.Works = append(je.Works, jsonWork{
					Title:    work.Title,
					Kind:     work.Kind.String(),
					Citation: work.Citation.String(),
				})
			}
			js.Entries = append(js.Entries, je)
		}
		doc.Sections = append(doc.Sections, js)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("render: json: %w", err)
	}
	return nil
}
