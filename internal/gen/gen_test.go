package gen

import (
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/names"
)

func TestDeterminism(t *testing.T) {
	cfg := Config{Seed: 7, Works: 200}
	a := Generate(cfg)
	b := Generate(cfg)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("work %d differs:\n%v\n%v", i, a[i], b[i])
		}
	}
	c := Generate(Config{Seed: 8, Works: 200})
	same := true
	for i := range a {
		if !a[i].Equal(c[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical corpora")
	}
}

func TestAllWorksValid(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: 1, Works: 500},
		{Seed: 2, Works: 500, ZipfS: 1.2},
		{Seed: 3, Works: 300, Plain: true},
		{Seed: 4, Works: 50, Volumes: 1},
	} {
		works := Generate(cfg)
		if len(works) != cfg.Works {
			t.Errorf("cfg %+v: generated %d works", cfg, len(works))
		}
		ids := map[model.WorkID]bool{}
		for _, w := range works {
			if err := w.Validate(); err != nil {
				t.Fatalf("cfg %+v: invalid work %v: %v", cfg, w, err)
			}
			if ids[w.ID] {
				t.Fatalf("duplicate ID %d", w.ID)
			}
			ids[w.ID] = true
		}
	}
}

func TestCitationsAdvance(t *testing.T) {
	works := Generate(Config{Seed: 5, Works: 300, Volumes: 5})
	for i := 1; i < len(works); i++ {
		if works[i].Citation.Compare(works[i-1].Citation) <= 0 {
			t.Fatalf("citations not strictly increasing at %d: %v then %v",
				i, works[i-1].Citation, works[i].Citation)
		}
	}
	// Volume range and year alignment.
	for _, w := range works {
		if w.Citation.Volume < 69 || w.Citation.Volume > 73 {
			t.Fatalf("volume %d out of range", w.Citation.Volume)
		}
		if w.Citation.Year != 1966+(w.Citation.Volume-69) {
			t.Fatalf("year %d misaligned with volume %d", w.Citation.Year, w.Citation.Volume)
		}
	}
}

// hasDiacritics reports whether folding s does more than lower-case it.
func hasDiacritics(s string) bool { return names.Fold(s) != strings.ToLower(s) }

func TestPlainSuppressesMessiness(t *testing.T) {
	works := Generate(Config{Seed: 6, Works: 400, Plain: true})
	for _, w := range works {
		for _, a := range w.Authors {
			if a.Particle != "" || a.Suffix != "" {
				t.Fatalf("plain corpus has particle/suffix: %+v", a)
			}
			if hasDiacritics(a.Family) || hasDiacritics(a.Given) {
				t.Fatalf("plain corpus has diacritics: %+v", a)
			}
		}
	}
}

func TestMessyCorpusHasVariety(t *testing.T) {
	works := Generate(Config{Seed: 7, Works: 2000})
	var diacritics, particles, suffixes, students, multi int
	for _, w := range works {
		if len(w.Authors) > 1 {
			multi++
		}
		for _, a := range w.Authors {
			if hasDiacritics(a.Family) {
				diacritics++
			}
			if a.Particle != "" {
				particles++
			}
			if a.Suffix != "" {
				suffixes++
			}
			if a.Student {
				students++
			}
		}
	}
	for name, n := range map[string]int{
		"diacritics": diacritics, "particles": particles,
		"suffixes": suffixes, "students": students, "multi-author": multi,
	} {
		if n == 0 {
			t.Errorf("2000-work corpus has no %s", name)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	count := func(zipfS float64) (maxShare float64) {
		works := Generate(Config{Seed: 9, Works: 3000, Authors: 300, ZipfS: zipfS})
		byAuthor := map[string]int{}
		for _, w := range works {
			for _, a := range w.Authors {
				byAuthor[a.Display()]++
			}
		}
		maxN := 0
		total := 0
		for _, n := range byAuthor {
			total += n
			if n > maxN {
				maxN = n
			}
		}
		return float64(maxN) / float64(total)
	}
	uniform := count(0)
	skewed := count(1.4)
	if skewed <= uniform*2 {
		t.Errorf("Zipf skew not evident: uniform max share %.4f, skewed %.4f", uniform, skewed)
	}
}

func TestAuthorPoolDistinct(t *testing.T) {
	pool := AuthorPool(Config{Seed: 10, Authors: 500, Works: 1})
	seen := map[string]bool{}
	for _, a := range pool {
		d := a.Display()
		if seen[d] {
			t.Fatalf("duplicate author %q", d)
		}
		seen[d] = true
		if err := a.Validate(); err != nil {
			t.Fatalf("invalid author %+v: %v", a, err)
		}
	}
	if len(pool) != 500 {
		t.Errorf("pool size %d", len(pool))
	}
}

func TestSubjectsGenerated(t *testing.T) {
	works := Generate(Config{Seed: 12, Works: 500})
	multi := 0
	for _, w := range works {
		if len(w.Subjects) == 0 {
			t.Fatalf("work %d has no subjects", w.ID)
		}
		if len(w.Subjects) > 1 {
			multi++
		}
		for _, s := range w.Subjects {
			if s == "" {
				t.Fatalf("work %d has empty subject", w.ID)
			}
		}
	}
	if multi == 0 {
		t.Error("no multi-subject works in 500")
	}
}

func TestStudentNoteAuthorsMarked(t *testing.T) {
	works := Generate(Config{Seed: 11, Works: 1000})
	for _, w := range works {
		if w.Kind == model.KindStudentNote && !w.Authors[0].Student {
			t.Fatalf("student note without student byline: %v", w)
		}
	}
}
