package names

import (
	"strings"
	"testing"
	"testing/quick"
	"unicode"
	"unicode/utf8"

	"repro/internal/model"
)

func TestParse(t *testing.T) {
	tests := []struct {
		in   string
		want model.Author
	}{
		{"Abdalla, Tarek F.*", model.Author{Family: "Abdalla", Given: "Tarek F.", Student: true}},
		{"Adler, Mortimer J.", model.Author{Family: "Adler", Given: "Mortimer J."}},
		{"Fisher, John W., II", model.Author{Family: "Fisher", Given: "John W.", Suffix: "II"}},
		{"Copenhaver, John T., Jr.", model.Author{Family: "Copenhaver", Given: "John T.", Suffix: "Jr."}},
		{"Van Tol, Joan E.", model.Author{Family: "Tol", Particle: "Van", Given: "Joan E."}},
		{"de la Cruz, Maria", model.Author{Family: "Cruz", Particle: "de la", Given: "Maria"}},
		{"van der Berg, Ludwig", model.Author{Family: "Berg", Particle: "van der", Given: "Ludwig"}},
		{"Adler", model.Author{Family: "Adler"}},
		{"Hooks, Benjamin L.", model.Author{Family: "Hooks", Given: "Benjamin L."}},
		{"Southworth, Louis S., II*", model.Author{Family: "Southworth", Given: "Louis S.", Suffix: "II", Student: true}},
		{"  Jones ,  Amy  ", model.Author{Family: "Jones", Given: "Amy"}},
		// Double student marker collapses to one flag.
		{"Smith, A.**", model.Author{Family: "Smith", Given: "A.", Student: true}},
		// Compound family name with no particle stays intact.
		{"Bates-Smith, Pamela A.", model.Author{Family: "Bates-Smith", Given: "Pamela A."}},
		{"Crain Mountney, Marion", model.Author{Family: "Crain Mountney", Given: "Marion"}},
		// Unknown trailing component is part of the given names.
		{"Grey, Jean, Phoenix", model.Author{Family: "Grey", Given: "Jean Phoenix"}},
	}
	for _, tt := range tests {
		got, err := Parse(tt.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tt.in, err)
			continue
		}
		if got != tt.want {
			t.Errorf("Parse(%q) = %+v, want %+v", tt.in, got, tt.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{"", "   ", "*", " ** "} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	inputs := []string{
		"Abdalla, Tarek F.*",
		"Fisher, John W., II",
		"Van Tol, Joan E.",
		"de la Cruz, Maria",
		"Adler",
		"Copenhaver, John T., Jr.",
	}
	for _, in := range inputs {
		a := MustParse(in)
		if got := Format(a); got != in {
			t.Errorf("Format(Parse(%q)) = %q", in, got)
		}
		// And parsing the formatted output is a fixed point.
		if again := MustParse(Format(a)); again != a {
			t.Errorf("Parse(Format(%+v)) = %+v", a, again)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic on empty input")
		}
	}()
	MustParse("")
}

func TestCanonicalSuffix(t *testing.T) {
	tests := []struct {
		in    string
		canon string
		ok    bool
	}{
		{"Jr", "Jr.", true},
		{"jr.", "Jr.", true},
		{"III", "III", true},
		{"iii", "III", true},
		{"Esq", "Esq.", true},
		{"Phoenix", "", false},
	}
	for _, tt := range tests {
		canon, ok := CanonicalSuffix(tt.in)
		if ok != tt.ok || canon != tt.canon {
			t.Errorf("CanonicalSuffix(%q) = %q,%v want %q,%v", tt.in, canon, ok, tt.canon, tt.ok)
		}
	}
}

// Initials returns the author's given-name initials, e.g. "Jeff L." → "J.L.".
func Initials(a model.Author) string {
	var b strings.Builder
	for _, w := range strings.Fields(a.Given) {
		r := firstLetter(w)
		if r == 0 {
			continue
		}
		b.WriteRune(r)
		b.WriteByte('.')
	}
	return b.String()
}

func firstLetter(w string) rune {
	for _, r := range w {
		if isLetter(r) {
			return r
		}
	}
	return 0
}

func isLetter(r rune) bool {
	return r >= 'A' && r <= 'Z' || r >= 'a' && r <= 'z' || r >= 0x80
}

func TestInitials(t *testing.T) {
	tests := []struct {
		a    model.Author
		want string
	}{
		{model.Author{Family: "Lewin", Given: "Jeff L."}, "J.L."},
		{model.Author{Family: "Adler"}, ""},
		{model.Author{Family: "Kafka", Given: "Élodie Marie"}, "É.M."},
	}
	for _, tt := range tests {
		if got := Initials(tt.a); got != tt.want {
			t.Errorf("Initials(%+v) = %q, want %q", tt.a, got, tt.want)
		}
	}
}

func TestFold(t *testing.T) {
	tests := []struct{ in, want string }{
		{"Müller", "muller"},
		{"GÖDEL", "godel"},
		{"Straße", "strasse"},
		{"Łukasiewicz", "lukasiewicz"},
		{"Ørsted", "orsted"},
		{"Þór", "thor"},
		{"Æthelred", "aethelred"},
		{"plain ascii", "plain ascii"},
		{"O'Brien", "o'brien"},
		{"Dvořák", "dvorak"},
		{"Ñandú", "nandu"},
		// Decomposed e + combining acute folds like precomposed é.
		{"Café", "cafe"},
		{"", ""},
	}
	for _, tt := range tests {
		if got := Fold(tt.in); got != tt.want {
			t.Errorf("Fold(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestFoldIdempotent(t *testing.T) {
	f := func(s string) bool { return Fold(Fold(s)) == Fold(s) }
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestFoldIdempotentEveryRune walks every valid rune: Fold is
// idempotent on each, and every fold-table key folds as its lower-case
// form does.
func TestFoldIdempotentEveryRune(t *testing.T) {
	for r := rune(0); r <= unicode.MaxRune; r++ {
		if !utf8.ValidRune(r) {
			continue
		}
		if f := Fold(string(r)); Fold(f) != f {
			t.Errorf("Fold(%U) = %q, but Fold(%q) = %q", r, f, f, Fold(f))
		}
	}
	for r := range foldTable {
		if got, want := Fold(string(r)), Fold(string(unicode.ToLower(r))); got != want {
			t.Errorf("Fold(%U) = %q, Fold of its lower case %U = %q", r, got, unicode.ToLower(r), want)
		}
	}
}

// HasDiacritics reports whether s contains any rune the fold table would
// rewrite or any combining mark.
func HasDiacritics(s string) bool {
	for _, r := range s {
		if r < 0x80 {
			continue
		}
		if _, ok := foldTable[r]; ok {
			return true
		}
		if unicode.Is(unicode.Mn, r) {
			return true
		}
	}
	return false
}

func TestHasDiacritics(t *testing.T) {
	tests := []struct {
		in   string
		want bool
	}{
		{"Müller", true},
		{"Muller", false},
		{"Café", true},
		{"日本", false}, // non-Latin but no diacritics in our table
	}
	for _, tt := range tests {
		if got := HasDiacritics(tt.in); got != tt.want {
			t.Errorf("HasDiacritics(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

// foldRuneString is the per-rune fold AppendFoldRune replaced, kept as
// the reference: one fresh string per rune.
func foldRuneString(r rune) string {
	if r < 0x80 {
		if r >= 'A' && r <= 'Z' {
			r += 'a' - 'A'
		}
		return string(r)
	}
	if unicode.Is(unicode.Mn, r) {
		return ""
	}
	if rep, ok := foldTable[r]; ok {
		return rep
	}
	return string(unicode.ToLower(r))
}

func TestAppendFoldRune(t *testing.T) {
	for _, tt := range []struct {
		in   rune
		want string
	}{
		{'A', "a"}, {'z', "z"}, {'ß', "ss"}, {'Ø', "o"}, {'\u0301', ""}, {'7', "7"},
	} {
		if got := string(AppendFoldRune(nil, tt.in)); got != tt.want {
			t.Errorf("AppendFoldRune(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}

	// Property: appending equals the old per-rune fold, and never
	// disturbs what dst already holds.
	check := func(r rune) {
		t.Helper()
		want := "pre" + foldRuneString(r)
		if got := string(AppendFoldRune([]byte("pre"), r)); got != want {
			t.Errorf("AppendFoldRune(%U) = %q, want %q", r, got, want)
		}
	}
	for r := range foldTable {
		check(r)
	}
	for _, rng := range unicode.Mn.R16 {
		for r := rune(rng.Lo); r <= rune(rng.Hi); r += rune(rng.Stride) {
			check(r)
		}
	}
	for _, rng := range unicode.Mn.R32 {
		for r := rune(rng.Lo); r <= rune(rng.Hi); r += rune(rng.Stride) {
			check(r)
		}
	}
	for r := rune(0); r <= 0xFFFF; r++ { // the BMP, surrogates included
		check(r)
	}
	for _, r := range []rune{-1, 0x1F600, unicode.MaxRune, unicode.MaxRune + 1} {
		check(r)
	}
}

func TestFoldMatchesRuneFold(t *testing.T) {
	ref := func(s string) string {
		var b strings.Builder
		for _, r := range s {
			b.WriteString(foldRuneString(r))
		}
		return b.String()
	}
	f := func(s string) bool { return Fold(s) == ref(s) }
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	for _, s := range []string{"\xff\xfeÅ", strings.Repeat("Ærøskøbing Straße ", 20)} {
		if !f(s) {
			t.Errorf("Fold(%q) = %q, want %q", s, Fold(s), ref(s))
		}
	}
}

func TestKeyMatchesAcrossSpellings(t *testing.T) {
	a := MustParse("Müller, Jörg")
	b := MustParse("Muller, Jorg")
	if Key(a) != Key(b) {
		t.Errorf("Key(%q) != Key(%q): %q vs %q", Format(a), Format(b), Key(a), Key(b))
	}
	c := MustParse("Muller, Georg")
	if Key(a) == Key(c) {
		t.Error("distinct names share key")
	}
	// Suffix distinguishes.
	d := MustParse("Fisher, John W., II")
	e := MustParse("Fisher, John W.")
	if Key(d) == Key(e) {
		t.Error("suffix ignored in key")
	}
}

func TestIsParticle(t *testing.T) {
	for _, p := range []string{"van", "Van", "DE", " la "} {
		if !IsParticle(p) {
			t.Errorf("IsParticle(%q) = false", p)
		}
	}
	if IsParticle("smith") {
		t.Error(`IsParticle("smith") = true`)
	}
}

func TestSplitParticleKeepsLastWordAsFamily(t *testing.T) {
	// Even if every word is a particle, the last word must stay the family.
	p, f := splitParticle("van der")
	if f == "" {
		t.Errorf("splitParticle('van der') lost family: particle=%q family=%q", p, f)
	}
}
