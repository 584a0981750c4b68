package metrics

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/model"
)

// The bounded selections in TopAuthors and snapshot are pinned against
// the full sorts they replaced, which live only here.

// refHIndex is the sort-based h-index: counts descending, the last
// position i (1-based) whose count is still at least i.
func refHIndex(byYear map[int]int) int {
	counts := make([]int, 0, len(byYear))
	for _, n := range byYear {
		counts = append(counts, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	h := 0
	for i, n := range counts {
		if n >= i+1 {
			h = i + 1
		}
	}
	return h
}

// refTopAuthors snapshots every author, sorts them all by the rank
// key's statistic descending and heading ascending, and truncates.
func refTopAuthors(e *Engine, by RankKey, limit int) []AuthorMetrics {
	all := make([]AuthorMetrics, 0, len(e.authors))
	for h := range e.authors {
		m, _ := e.Author(h)
		all = append(all, m)
	}
	value := func(m AuthorMetrics) float64 {
		switch by {
		case ByWeighted:
			return m.Weighted
		case ByFractional:
			return m.Fractional
		case ByHIndex:
			return float64(refHIndex(m.ByYear))
		case ByCollaborators:
			return float64(m.Collaborators)
		case ByFirstAuthored:
			return float64(m.FirstAuthored)
		}
		return float64(m.Works) // ByWorks, and ByCentrality's fallback
	}
	sort.Slice(all, func(i, j int) bool {
		if vi, vj := value(all[i]), value(all[j]); vi != vj {
			return vi > vj
		}
		return all[i].Heading < all[j].Heading
	})
	if limit > 0 && len(all) > limit {
		all = all[:limit]
	}
	return all
}

// tiedCorpus is a generated corpus plus a block of works that give
// several authors identical statistics under every rank key.
func tiedCorpus() []*model.Work {
	works := gen.Generate(gen.Config{Seed: 4, Works: 400, ZipfS: 1.2})
	id := model.WorkID(len(works) + 1)
	for _, pair := range [][2]string{{"Tie, Ann", "Tie, Bob"}, {"Tie, Cal", "Tie, Dee"}} {
		for y := 1980; y < 1983; y++ {
			works = append(works, work(id, y, pair[0], pair[1]), work(id+1, y, pair[1], pair[0]))
			id += 2
		}
	}
	return works
}

func TestTopAuthorsMatchesFullSort(t *testing.T) {
	e := NewEngine(Harmonic)
	e.Rebuild(tiedCorpus())
	n := e.Len()
	keys := []RankKey{ByWorks, ByWeighted, ByFractional, ByHIndex, ByCollaborators, ByFirstAuthored, ByCentrality}
	for _, by := range keys {
		for _, limit := range []int{1, 10, n - 1, n, n + 5, 0} {
			got, want := e.TopAuthors(by, limit), refTopAuthors(e, by, limit)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("TopAuthors(%v, %d) diverges from the full sort:\n got %v\nwant %v", by, limit, headings(got), headings(want))
			}
		}
	}
	// The corpus must actually tie at the cut, or the heading tiebreak
	// goes unchecked.
	top := refTopAuthors(e, ByWorks, 0)
	ties := 0
	for i := 1; i < len(top); i++ {
		if top[i].Works == top[i-1].Works {
			ties++
		}
	}
	if ties < n/2 {
		t.Fatalf("only %d of %d adjacent ranks tie on works", ties, n)
	}
}

// TestTopCollaboratorsMatchesFullSort: every author's top-five
// co-author list equals a full sort of all co-authors by shared works
// descending, heading ascending.
func TestTopCollaboratorsMatchesFullSort(t *testing.T) {
	e := NewEngine(Harmonic)
	e.Rebuild(tiedCorpus())
	tied := 0
	for h := range e.authors {
		var all []Collaborator
		for _, ed := range e.graph.Row(e.authors[h]) {
			all = append(all, Collaborator{Heading: e.graph.Heading(ed.ID), Works: int(ed.Works)})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].Works != all[j].Works {
				return all[i].Works > all[j].Works
			}
			return all[i].Heading < all[j].Heading
		})
		if len(all) > topCollaborators {
			if all[topCollaborators].Works == all[topCollaborators-1].Works {
				tied++
			}
			all = all[:topCollaborators]
		}
		if len(all) == 0 {
			all = nil
		}
		m, _ := e.Author(h)
		if !reflect.DeepEqual(m.TopCollaborators, all) {
			t.Fatalf("%s: TopCollaborators = %v, want %v", h, m.TopCollaborators, all)
		}
	}
	if tied == 0 {
		t.Fatal("no author ties at the fifth co-author: the tiebreak goes unchecked")
	}
}

// TestHIndexMatchesSort also covers large h-indexes: one case in four
// spreads up to 200 works a year over up to 200 years.
func TestHIndexMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	large := 0
	for i := 0; i < 2000; i++ {
		years, most := 30, 40
		if i%4 == 0 {
			years, most = 200, 200
		}
		byYear := map[int]int{}
		for y := r.Intn(years); y > 0; y-- {
			byYear[1800+r.Intn(years*2)] = 1 + r.Intn(most)
		}
		if refHIndex(byYear) >= 50 {
			large++
		}
		var ys []yearCount
		for y, n := range byYear {
			ys = bumpYear(ys, int32(y), int32(n))
		}
		if got, want := hIndex(ys), refHIndex(byYear); got != want {
			t.Fatalf("hIndex(%v) = %d, want %d", byYear, got, want)
		}
	}
	if large == 0 {
		t.Fatal("no case reached h >= 50")
	}
}

// TestTopAuthorsAllocsIndependentOfAuthors: ranking by h-index
// allocates for the limit it returns, not once per author. Two
// trackers share the same twelve prolific authors; the larger adds
// 5,000 one-work authors that never reach the top ten.
func TestTopAuthorsAllocsIndependentOfAuthors(t *testing.T) {
	build := func(extra int) *Engine {
		e := NewEngine(Harmonic)
		id := model.WorkID(1)
		for a := 0; a < 12; a++ {
			for y := 0; y < 3+a%4; y++ {
				for k := 0; k < 3+a%4; k++ {
					e.Add(work(id, 1980+y, fmt.Sprintf("Top%02d", a), fmt.Sprintf("Top%02d", (a+1)%12)))
					id++
				}
			}
		}
		for i := 0; i < extra; i++ {
			e.Add(work(id, 1990, fmt.Sprintf("Solo%05d", i)))
			id++
		}
		return e
	}
	small, large := build(0), build(5000)
	for _, by := range []RankKey{ByHIndex, ByWeighted} {
		if !reflect.DeepEqual(small.TopAuthors(by, 10), large.TopAuthors(by, 10)) {
			t.Fatalf("%v: the extra authors changed the top ten", by)
		}
		allocs := func(e *Engine) float64 {
			return testing.AllocsPerRun(20, func() { e.TopAuthors(by, 10) })
		}
		if s, l := allocs(small), allocs(large); l > s {
			t.Fatalf("TopAuthors(%v, 10): %.0f allocs over %d authors, %.0f over %d", by, l, large.Len(), s, small.Len())
		}
	}
}

func headings(ms []AuthorMetrics) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Heading
	}
	return out
}
