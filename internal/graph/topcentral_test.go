package graph

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/model"
)

// refTopCentral is the full sort TopCentral's bounded selection
// replaced: every author by score descending, heading ascending, then
// truncated.
func refTopCentral(g *Graph, limit int) []CentralAuthor {
	pr := g.pageRank()
	var all []CentralAuthor
	for id, n := range g.works {
		if n > 0 {
			all = append(all, CentralAuthor{Heading: g.names[id], Score: pr[id]})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Heading < all[j].Heading
	})
	if limit > 0 && len(all) > limit {
		all = all[:limit]
	}
	return all
}

// TestTopCentralMatchesFullSort pins TopCentral to the full sort at
// limits 1, 10 and all, on a generated corpus and on a network of
// disjoint identical pairs and loners whose scores tie exactly. Headings
// are added in reverse order, so ID order is not heading order.
func TestTopCentralMatchesFullSort(t *testing.T) {
	generated := New(0)
	for _, w := range gen.Generate(gen.Config{Seed: 6, Works: 600, ZipfS: 1.2}) {
		generated.Add(w)
	}
	tied := New(0)
	for i := 11; i >= 0; i-- {
		tied.Add(work(model.WorkID(100+i), fmt.Sprintf("Pair%02d, A", i), fmt.Sprintf("Pair%02d, B", i)))
	}
	for i := 3; i >= 0; i-- {
		tied.Add(work(model.WorkID(200+i), fmt.Sprintf("Loner%d", i)))
	}
	for name, g := range map[string]*Graph{"generated": generated, "tied": tied} {
		all := refTopCentral(g, 0)
		ties := 0
		for i := 1; i < len(all); i++ {
			if all[i].Score == all[i-1].Score {
				ties++
			}
		}
		if ties == 0 {
			t.Fatalf("%s: no tied scores; the test would not pin the tie-break", name)
		}
		for _, limit := range []int{1, 10, 0} {
			if got, want := g.TopCentral(limit), refTopCentral(g, limit); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: TopCentral(%d) = %v, want %v", name, limit, got, want)
			}
		}
	}
}
