// Statistics appendix: the contributor summary that closes the printed
// index. Text gets an aligned table under a "— STATISTICS —" rule,
// Markdown a table section, JSON a structured "statistics" member. The
// machine round-trip formats (TSV, CSV) never carry the appendix.

package render

import (
	"fmt"
	"strings"

	"repro/internal/metrics"
)

// Statistics is the data behind the contributor-summary appendix. The
// facade fills it from the metrics tracker when Options.Statistics is
// set; callers below the facade may populate it directly.
type Statistics struct {
	// Scheme names the credit-weighting scheme the values were computed
	// under.
	Scheme string `json:"scheme"`
	// Works, Authors and Postings are corpus totals.
	Works    int `json:"works"`
	Authors  int `json:"authors"`
	Postings int `json:"postings"`
	// SoloWorks counts single-author works; Pairs distinct collaborating
	// author pairs.
	SoloWorks int `json:"soloWorks"`
	Pairs     int `json:"pairs"`
	// Top lists the ranked contributors, best first.
	Top []metrics.AuthorMetrics `json:"top"`
}

// statsFromSummary pairs a corpus summary with a ranked contributor
// list into the appendix payload.
func statsFromSummary(s metrics.Summary, top []metrics.AuthorMetrics) *Statistics {
	return &Statistics{
		Scheme:    s.Scheme,
		Works:     s.Works,
		Authors:   s.Authors,
		Postings:  s.Postings,
		SoloWorks: s.SoloWorks,
		Pairs:     s.Pairs,
		Top:       top,
	}
}

// StatisticsSupported reports whether the format renders the appendix;
// the machine round-trip formats (TSV, CSV) and HTML never carry it, so
// callers can skip building it for them.
func StatisticsSupported(f Format) bool {
	return f == Text || f == Markdown || f == JSON
}

// BuildStatistics assembles the appendix from a metrics tracker: the
// corpus summary plus the top contributors by position-weighted credit.
// limit <= 0 defaults to 10.
func BuildStatistics(t *metrics.Engine, limit int) *Statistics {
	if t == nil {
		return nil
	}
	if limit <= 0 {
		limit = 10
	}
	return statsFromSummary(t.Summary(), t.TopAuthors(metrics.ByWeighted, limit))
}

// statsColumns renders the ranked contributor table shared by the text
// and Markdown appendixes: one row per author, credit to three decimal
// places.
func statsColumns(st *Statistics) (header []string, rows [][]string) {
	header = []string{"rank", "author", "works", "first", "credit", "frac", "h", "collabs"}
	for i, m := range st.Top {
		rows = append(rows, []string{
			fmt.Sprint(i + 1),
			m.Heading,
			fmt.Sprint(m.Works),
			fmt.Sprint(m.FirstAuthored),
			fmt.Sprintf("%.3f", m.Weighted),
			fmt.Sprintf("%.3f", m.Fractional),
			fmt.Sprint(m.HIndex),
			fmt.Sprint(m.Collaborators),
		})
	}
	return header, rows
}

// summaryLine renders the one-line corpus totals shown above the table.
func (st *Statistics) summaryLine() string {
	return fmt.Sprintf("%d works · %d contributors · %d postings · %d solo · %d collaborating pairs · scheme: %s",
		st.Works, st.Authors, st.Postings, st.SoloWorks, st.Pairs, st.Scheme)
}

// appendTextStats emits the appendix through the text pager so it pages
// and headers like the body.
func appendTextStats(p *textPager, st *Statistics) {
	p.emit("")
	p.emitCentered("— STATISTICS —")
	p.emit("")
	p.emit(st.summaryLine())
	p.emit("")
	header, rows := statsColumns(st)
	p.table(header, rows, "(no contributors)")
}

// appendMarkdownStats emits the appendix as a "## Statistics" section
// with a contributor table.
func appendMarkdownStats(b *strings.Builder, st *Statistics) {
	header, rows := statsColumns(st)
	markdownTable(b, "Statistics", st.summaryLine(), header, rows)
}
