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
// section). The facade gathers each shard's sections and merges them
// in print order before handing them here. Cancellation is checked
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

type textPager struct {
	w          io.Writer
	opts       Options
	line, page int
	err        error
}

func (p *textPager) emit(s string) {
	if p.err != nil {
		return
	}
	if p.line == 0 {
		p.header()
		if p.err != nil {
			return
		}
	}
	if _, err := io.WriteString(p.w, s+"\n"); err != nil {
		p.err = err
		return
	}
	p.line++
	if p.opts.PageLength > 0 && p.line >= p.opts.PageLength {
		p.line = 0
		if _, err := io.WriteString(p.w, "\n"); err != nil {
			p.err = err
		}
	}
}

func (p *textPager) header() {
	p.page++
	width := p.opts.pageWidth()
	head := center(p.opts.runningHead(), width)
	lines := []string{head}
	if vol := p.opts.Volume.String(); vol != "" {
		lines = append(lines, center(fmt.Sprintf("%s — page %d", vol, p.page), width))
	}
	lines = append(lines, strings.Repeat("─", width))
	for _, l := range lines {
		if _, err := io.WriteString(p.w, l+"\n"); err != nil {
			p.err = err
			return
		}
	}
}

func renderText(ctx context.Context, w io.Writer, sections []core.Section, opts Options) error {
	parent := trace.FromContext(ctx)
	width := opts.pageWidth()
	// Column plan: author | gap | title | gap | citation.
	citeW := 16
	authorW := (width - citeW - 2) * 2 / 5
	titleW := width - citeW - 2 - authorW
	p := &textPager{w: w, opts: opts}

	row := func(author, title, cite string) {
		titleLines := wrap(title, titleW)
		authorLines := wrap(author, authorW)
		n := max(len(titleLines), len(authorLines))
		for i := 0; i < n; i++ {
			a, t, c := "", "", ""
			if i < len(authorLines) {
				a = authorLines[i]
			}
			if i < len(titleLines) {
				t = titleLines[i]
			}
			if i == 0 {
				c = cite
			}
			p.emit(fmt.Sprintf("%-*s %-*s %*s", authorW, a, titleW, t, citeW, c))
		}
	}

	for _, sec := range sections {
		// A disconnected client stops a large text render at the next
		// section boundary instead of formatting pages nobody will read.
		if err := ctx.Err(); err != nil {
			return err
		}
		secSpan := parent.StartChild("render.section " + string(sec.Letter))
		secSpan.SetInt("entries", int64(len(sec.Entries)))
		if !opts.NoSections {
			p.emit("")
			p.emit(center(fmt.Sprintf("— %c —", sec.Letter), width))
			p.emit("")
		}
		for _, e := range sec.Entries {
			name := e.Author.Display()
			for _, ref := range e.SeeAlso {
				row(name, "See also: "+ref.Display(), "")
			}
			for _, work := range e.Works {
				row(name, work.Title, work.Citation.String())
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
	if p.err != nil {
		return fmt.Errorf("render: text: %w", p.err)
	}
	if p.line == 0 && p.page == 0 {
		// Completely empty index: still emit the header for context.
		p.header()
	}
	return p.err
}

func center(s string, width int) string {
	if len(s) >= width {
		return s
	}
	pad := (width - len(s)) / 2
	return strings.Repeat(" ", pad) + s
}

// wrap greedily wraps s into lines at most width runes wide, hard-breaking
// words longer than the width.
func wrap(s string, width int) []string {
	if width < 1 {
		width = 1
	}
	words := strings.Fields(s)
	if len(words) == 0 {
		return []string{""}
	}
	var lines []string
	cur := ""
	flush := func() {
		if cur != "" {
			lines = append(lines, cur)
			cur = ""
		}
	}
	for _, word := range words {
		for len([]rune(word)) > width {
			flush()
			r := []rune(word)
			lines = append(lines, string(r[:width]))
			word = string(r[width:])
		}
		switch {
		case cur == "":
			cur = word
		case len([]rune(cur))+1+len([]rune(word)) <= width:
			cur += " " + word
		default:
			flush()
			cur = word
		}
	}
	flush()
	return lines
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
