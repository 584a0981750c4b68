package collate

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/names"
)

func sortedDisplay(t *testing.T, o Options, raw ...string) []string {
	t.Helper()
	authors := make([]model.Author, len(raw))
	for i, s := range raw {
		authors[i] = names.MustParse(s)
	}
	sort.Slice(authors, func(i, j int) bool {
		return bytes.Compare(KeyAuthor(authors[i], o), KeyAuthor(authors[j], o)) < 0
	})
	out := make([]string, len(authors))
	for i, a := range authors {
		out[i] = a.Display()
	}
	return out
}

func TestOrderBasicAlphabetical(t *testing.T) {
	got := sortedDisplay(t, Default(),
		"Bryant, S. Benjamin",
		"Abdalla, Tarek F.*",
		"Cardi, Vincent P.",
		"Abramovsky, Deborah",
		"Abrams, Dennis M.",
	)
	want := []string{
		"Abdalla, Tarek F.*",
		"Abramovsky, Deborah",
		"Abrams, Dennis M.",
		"Bryant, S. Benjamin",
		"Cardi, Vincent P.",
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order[%d] = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestFamilyBeatsGiven(t *testing.T) {
	// "Smith, Z." must precede "Smithe, A.": the family-name field
	// terminates before the given name is considered.
	got := sortedDisplay(t, Default(), "Smithe, A.", "Smith, Z.")
	if got[0] != "Smith, Z." {
		t.Errorf("got %v, want Smith first", got)
	}
}

func TestSchemes(t *testing.T) {
	// Word-by-word: "De Long" < "Deford"; letter-by-letter: reversed.
	wbw := sortedDisplay(t, Options{Scheme: WordByWord, GroupParticle: true}, "Deford, A.", "De Long, B.")
	if wbw[0] != "De Long, B." {
		t.Errorf("word-by-word: got %v, want De Long first", wbw)
	}
	lbl := sortedDisplay(t, Options{Scheme: LetterByLetter, GroupParticle: true}, "Deford, A.", "De Long, B.")
	if lbl[0] != "Deford, A." {
		t.Errorf("letter-by-letter: got %v, want Deford first", lbl)
	}
}

func TestHyphenIsWordBreakInWordByWord(t *testing.T) {
	// Bates-Smith files as "bates smith" word-by-word.
	wbw := sortedDisplay(t, Default(), "Batesson, Q.", "Bates-Smith, Pamela A.")
	if wbw[0] != "Bates-Smith, Pamela A." {
		t.Errorf("got %v, want Bates-Smith first", wbw)
	}
}

func TestMcAsMac(t *testing.T) {
	// With expansion, McAteer files as "MacAteer" and so interfiles
	// before MacLeod.
	with := Options{Scheme: WordByWord, McAsMac: true, GroupParticle: true}
	got := sortedDisplay(t, with, "McAteer, J. Davitt", "MacLeod, John A.", "Maxwell, Robert E.")
	want := []string{"McAteer, J. Davitt", "MacLeod, John A.", "Maxwell, Robert E."}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Mc→Mac order = %v, want %v", got, want)
		}
	}
	without := Default()
	got = sortedDisplay(t, without, "McAteer, J. Davitt", "MacLeod, John A.", "Maxwell, Robert E.")
	want = []string{"MacLeod, John A.", "Maxwell, Robert E.", "McAteer, J. Davitt"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("plain order = %v, want %v", got, want)
		}
	}
}

func TestParticleGrouping(t *testing.T) {
	grouped := Default() // Van Tol under V
	got := sortedDisplay(t, grouped, "Tol, Q.", "Van Tol, Joan E.", "Udall, Morris K.")
	want := []string{"Tol, Q.", "Udall, Morris K.", "Van Tol, Joan E."}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grouped = %v, want %v", got, want)
		}
	}
	// Ungrouped, both file under Tol and order by given name (Joan < Q.).
	ungrouped := Options{Scheme: WordByWord, GroupParticle: false} // Van Tol under T
	got = sortedDisplay(t, ungrouped, "Tol, Q.", "Van Tol, Joan E.", "Udall, Morris K.")
	want = []string{"Van Tol, Joan E.", "Tol, Q.", "Udall, Morris K."}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ungrouped = %v, want %v", got, want)
		}
	}
}

func TestSuffixGenerationalOrder(t *testing.T) {
	got := sortedDisplay(t, Default(),
		"Fisher, John W., III",
		"Fisher, John W.",
		"Fisher, John W., Jr.",
		"Fisher, John W., Sr.",
		"Fisher, John W., II",
	)
	want := []string{
		"Fisher, John W.",
		"Fisher, John W., Sr.",
		"Fisher, John W., Jr.",
		"Fisher, John W., II",
		"Fisher, John W., III",
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("suffix order = %v, want %v", got, want)
		}
	}
}

func TestDiacriticsSecondaryTier(t *testing.T) {
	// Primary-equal names order by diacritics: plain before accented.
	got := sortedDisplay(t, Default(), "Müller, Jörg", "Muller, Jorg", "Mullen, A.")
	want := []string{"Mullen, A.", "Muller, Jorg", "Müller, Jörg"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("diacritic order = %v, want %v", got, want)
		}
	}
}

func TestCaseTertiaryTier(t *testing.T) {
	a := model.Author{Family: "DeLong", Given: "A."}
	b := model.Author{Family: "Delong", Given: "A."}
	ka, kb := KeyAuthor(a, Default()), KeyAuthor(b, Default())
	if bytes.Equal(ka, kb) {
		t.Fatal("case-differing names share a key")
	}
	if bytes.Compare(ka, kb) > 0 {
		t.Error("upper-case variant should sort first at the tertiary tier")
	}
}

func TestStudentFlagDoesNotReorder(t *testing.T) {
	a := model.Author{Family: "Lewin", Given: "Jeff L."}
	b := a
	b.Student = true
	ka, kb := KeyAuthor(a, Default()), KeyAuthor(b, Default())
	// Keys differ (tertiary tier sees the asterisk) but primary tiers match.
	pa := bytes.SplitN(ka, []byte{tierSep}, 2)[0]
	pb := bytes.SplitN(kb, []byte{tierSep}, 2)[0]
	if !bytes.Equal(pa, pb) {
		t.Error("student flag changed primary tier")
	}
	if bytes.Equal(ka, kb) {
		t.Error("student flag invisible to full key; entries would collide")
	}
}

func TestFirstLetter(t *testing.T) {
	tests := []struct {
		in   string
		o    Options
		want byte
	}{
		{"Abdalla, Tarek F.*", Default(), 'A'},
		{"Van Tol, Joan E.", Default(), 'V'},
		{"Van Tol, Joan E.", Options{GroupParticle: false}, 'T'},
		{"Ørsted, Hans", Default(), 'O'},
		{"McAteer, J. Davitt", Options{McAsMac: true}, 'M'},
		{"'t Hooft, G.", Options{}, 'T'},
	}
	for _, tt := range tests {
		a := names.MustParse(tt.in)
		if got := FirstLetter(a, tt.o); got != tt.want {
			t.Errorf("FirstLetter(%q, %+v) = %c, want %c", tt.in, tt.o, got, tt.want)
		}
	}
}

func TestPrimaryPrefixMatchesFullKey(t *testing.T) {
	o := Default()
	a := names.MustParse("Abdalla, Tarek F.*")
	key := KeyAuthor(a, o)
	for _, p := range []string{"A", "Ab", "abd", "ABDALLA"} {
		prefix := PrimaryPrefix(p, o)
		if !bytes.HasPrefix(key, prefix) {
			t.Errorf("key for %q does not start with PrimaryPrefix(%q)=%x", a.Display(), p, prefix)
		}
	}
	if bytes.HasPrefix(key, PrimaryPrefix("Abe", o)) {
		t.Error("non-matching prefix matched")
	}
}

func TestKeyStringOrdersTitles(t *testing.T) {
	o := Default()
	titles := []string{"Zoning Basics", "an essay", "An Essay", "Áccent First"}
	sort.Slice(titles, func(i, j int) bool {
		return bytes.Compare(KeyString(titles[i], o), KeyString(titles[j], o)) < 0
	})
	want := []string{"Áccent First", "An Essay", "an essay", "Zoning Basics"}
	for i := range want {
		if titles[i] != want[i] {
			t.Fatalf("title order = %v, want %v", titles, want)
		}
	}
}

func TestNonLatinAndDigitHeadings(t *testing.T) {
	o := Default()
	// A name with no Latin-foldable head letter files under '#'.
	cjk := model.Author{Family: "田中", Given: "一郎"}
	if got := FirstLetter(cjk, o); got != '#' {
		t.Errorf("CJK FirstLetter = %c, want #", got)
	}
	num := model.Author{Family: "3M Collective"}
	if got := FirstLetter(num, o); got != '#' {
		t.Errorf("digit FirstLetter = %c, want #", got)
	}
	// Keys still order deterministically and non-equal.
	ka := KeyAuthor(cjk, o)
	kb := KeyAuthor(num, o)
	if bytes.Equal(ka, kb) {
		t.Error("distinct non-Latin headings share a key")
	}
	// Digits sort before letters at the primary tier.
	letter := model.Author{Family: "Abel"}
	if bytes.Compare(kb, KeyAuthor(letter, o)) >= 0 {
		t.Error("digit-led heading does not precede letters")
	}
}

func TestSchemeString(t *testing.T) {
	if LetterByLetter.String() != "letter-by-letter" || WordByWord.String() != "word-by-word" {
		t.Error("Scheme.String mismatch")
	}
}

// randomAuthor builds authors from a constrained alphabet so collisions
// and near-misses are common.
func randomAuthor(r *rand.Rand) model.Author {
	pick := func(choices []string) string { return choices[r.Intn(len(choices))] }
	return model.Author{
		Family:   pick([]string{"Smith", "Smyth", "smith", "Smith-Jones", "Sm ith", "Müller", "Muller", "McAdam", "MacAdam", "Ó Baoill"}),
		Given:    pick([]string{"", "A.", "a.", "Ann B.", "Ánn"}),
		Particle: pick([]string{"", "van", "de la", "Van"}),
		Suffix:   pick([]string{"", "Jr.", "Sr.", "II", "III", "XVII"}),
		Student:  r.Intn(2) == 0,
	}
}

func TestKeyIsTotalOrderQuick(t *testing.T) {
	// Antisymmetry + key equality iff author equality under Display.
	for _, o := range []Options{Default(), {}, {Scheme: WordByWord, McAsMac: true}, {GroupParticle: true}} {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			a, b := randomAuthor(r), randomAuthor(r)
			ka, kb := KeyAuthor(a, o), KeyAuthor(b, o)
			c1, c2 := bytes.Compare(ka, kb), bytes.Compare(kb, ka)
			if c1 != -c2 {
				return false
			}
			if c1 == 0 {
				// Equal keys must mean identical tertiary (original) text.
				return a.Display() == b.Display()
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("options %+v: %v", o, err)
		}
	}
}

func TestKeyDeterministic(t *testing.T) {
	a := names.MustParse("Van Tol, Joan E.")
	if !bytes.Equal(KeyAuthor(a, Default()), KeyAuthor(a, Default())) {
		t.Error("KeyAuthor not deterministic")
	}
}

func TestKeyAllocsIndependentOfLength(t *testing.T) {
	// A fixed allocation budget, whatever the input length: a per-rune
	// allocation or an unsized key buffer would grow with the text.
	const maxStringAllocs, maxAuthorAllocs = 2, 4
	long := strings.Repeat("Éléonore Ångström ", 11)[:200]
	for _, o := range []Options{Default(), {Scheme: LetterByLetter, McAsMac: true}} {
		for _, s := range []string{"Law", "The Silent Revolution in Nuisance Law", long} {
			if n := testing.AllocsPerRun(20, func() { KeyString(s, o) }); n > maxStringAllocs {
				t.Errorf("KeyString(%d bytes, %+v): %v allocations, want at most %d", len(s), o, n, maxStringAllocs)
			}
		}
		for _, a := range []model.Author{
			names.MustParse("Smith, Ann"),
			names.MustParse("Van Tol, Joan E., Jr."),
			{Particle: "de la", Family: "McÉléonore" + long, Given: long, Suffix: "III"},
		} {
			if n := testing.AllocsPerRun(20, func() { KeyAuthor(a, o) }); n > maxAuthorAllocs {
				t.Errorf("KeyAuthor(%d bytes, %+v): %v allocations, want at most %d",
					len(a.Display()), o, n, maxAuthorAllocs)
			}
		}
	}
}
