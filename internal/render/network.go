// Network appendix: the collaboration-network summary that can close
// the printed index after (or instead of) the contributor statistics.
// Text gets an aligned table under a "— COLLABORATION NETWORK —" rule,
// Markdown a table section, JSON a structured "network" member. The
// machine round-trip formats (TSV, CSV) never carry it.

package render

import (
	"fmt"
	"strings"

	"repro/internal/graph"
)

// NetworkStats is the data behind the collaboration-network appendix.
// The facade fills it from the coauthorship graph when Options.Network
// is set; callers below the facade may populate it directly.
type NetworkStats struct {
	// Nodes, Edges and Works are network totals; Components counts
	// connected components and LargestComponent the size of the biggest.
	Nodes            int `json:"nodes"`
	Edges            int `json:"edges"`
	Works            int `json:"works"`
	Components       int `json:"components"`
	LargestComponent int `json:"largestComponent"`
	// Density is edges over possible pairs, 2E / (V·(V−1)).
	Density float64 `json:"density"`
	// Damping names the PageRank damping factor the centrality scores
	// were computed under.
	Damping float64 `json:"damping"`
	// Top lists the most central authors, best first.
	Top []graph.CentralAuthor `json:"top"`
}

// NetworkSupported reports whether the format renders the network
// appendix — the same formats that carry the statistics appendix.
func NetworkSupported(f Format) bool { return StatisticsSupported(f) }

// BuildNetwork assembles the appendix from a coauthorship graph: the
// network counts plus the top authors by centrality. limit <= 0
// defaults to 10. Fields are read directly rather than via Summarize so
// only one centrality sort (at the caller's limit) runs.
func BuildNetwork(g *graph.Graph, limit int) *NetworkStats {
	if g == nil {
		return nil
	}
	if limit <= 0 {
		limit = 10
	}
	return &NetworkStats{
		Nodes:            g.Nodes(),
		Edges:            g.Edges(),
		Works:            g.Works(),
		Components:       g.Components(),
		LargestComponent: g.LargestComponent(),
		Density:          g.Density(),
		Damping:          g.Damping(),
		Top:              g.TopCentral(limit),
	}
}

// networkColumns renders the ranked centrality table shared by the text
// and Markdown appendixes.
func networkColumns(st *NetworkStats) (header []string, rows [][]string) {
	header = []string{"rank", "author", "centrality"}
	for i, c := range st.Top {
		rows = append(rows, []string{
			fmt.Sprint(i + 1),
			c.Heading,
			fmt.Sprintf("%.6f", c.Score),
		})
	}
	return header, rows
}

// networkSummaryLine renders the one-line totals shown above the table.
func (st *NetworkStats) networkSummaryLine() string {
	return fmt.Sprintf("%d authors · %d collaborating pairs · %d components (largest %d) · density %.6f · damping %.2f",
		st.Nodes, st.Edges, st.Components, st.LargestComponent, st.Density, st.Damping)
}

// appendTextNetwork emits the appendix through the text pager so it
// pages and headers like the body.
func appendTextNetwork(p *textPager, st *NetworkStats) {
	p.emit("")
	p.emitCentered("— COLLABORATION NETWORK —")
	p.emit("")
	p.emit(st.networkSummaryLine())
	p.emit("")
	header, rows := networkColumns(st)
	p.table(header, rows, "(no authors)")
}

// appendMarkdownNetwork emits the appendix as a "## Collaboration
// Network" section with a centrality table.
func appendMarkdownNetwork(b *strings.Builder, st *NetworkStats) {
	header, rows := networkColumns(st)
	markdownTable(b, "Collaboration Network", st.networkSummaryLine(), header, rows)
}
