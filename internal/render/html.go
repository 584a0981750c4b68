package render

import (
	"fmt"
	"html/template"
	"io"

	"repro/internal/core"
)

// htmlTemplate renders the author index as a standalone page: a letter
// navigation bar, one section per letter, one definition-list entry per
// heading. All interpolation is through html/template, so titles and
// names are escaped.
var htmlTemplate = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{{.Head}}{{with .Volume}} — {{.}}{{end}}</title>
<style>
body { font-family: Georgia, serif; max-width: 60rem; margin: 2rem auto; padding: 0 1rem; }
h1 { text-align: center; letter-spacing: .3em; }
.volume { text-align: center; font-style: italic; margin-bottom: 2rem; }
nav { text-align: center; margin: 1rem 0 2rem; }
nav a { margin: 0 .25rem; text-decoration: none; }
h2 { border-bottom: 1px solid #999; }
dt { font-weight: bold; margin-top: .6rem; }
dd { margin: 0 0 0 2rem; }
.cite { color: #555; white-space: nowrap; }
.seealso { font-style: italic; }
</style>
</head>
<body>
<h1>{{.Head}}</h1>
{{with .Volume}}<div class="volume">{{.}}</div>{{end}}
<nav>{{range .Sections}}<a href="#sec-{{.Letter}}">{{.Letter}}</a>{{end}}</nav>
{{range .Sections}}<section id="sec-{{.Letter}}">
<h2>{{.Letter}}</h2>
<dl>
{{range .Entries}}<dt>{{.Heading}}</dt>
{{range .SeeAlso}}<dd class="seealso">see also {{.}}</dd>
{{end}}{{range .Works}}<dd>{{.Title}} <span class="cite">{{.Citation}}</span></dd>
{{end}}{{end}}</dl>
</section>
{{end}}</body>
</html>
`))

type htmlDoc struct {
	Head     string
	Volume   string
	Sections []htmlSection
}

type htmlSection struct {
	Letter  string
	Entries []htmlEntry
}

type htmlEntry struct {
	Heading string
	SeeAlso []string
	Works   []htmlWork
}

type htmlWork struct {
	Title    string
	Citation string
}

// htmlSections renders pre-collected sections as the HTML page.
func htmlSections(w io.Writer, sections []core.Section, opts Options) error {
	doc := htmlDoc{Head: opts.runningHead(), Volume: opts.Volume.String()}
	for _, sec := range sections {
		hs := htmlSection{Letter: string(sec.Letter)}
		for _, e := range sec.Entries {
			he := htmlEntry{Heading: e.Author.Display()}
			for _, ref := range e.SeeAlso {
				he.SeeAlso = append(he.SeeAlso, ref.Display())
			}
			for _, work := range e.Works {
				he.Works = append(he.Works, htmlWork{Title: work.Title, Citation: work.Citation.String()})
			}
			hs.Entries = append(hs.Entries, he)
		}
		doc.Sections = append(doc.Sections, hs)
	}
	if err := htmlTemplate.Execute(w, doc); err != nil {
		return fmt.Errorf("render: html: %w", err)
	}
	return nil
}
