package model

import (
	"fmt"
	"math"
	"math/rand"

	"strings"
	"testing"
	"testing/quick"
)

func validWork() *Work {
	return &Work{
		ID:    7,
		Title: "Unlocking the Fire",
		Kind:  KindArticle,
		Authors: []Author{
			{Family: "Lewin", Given: "Jeff L."},
			{Family: "Peng", Given: "Syd S.", Student: true},
		},
		Citation: Citation{Volume: 94, Page: 563, Year: 1992},
	}
}

func TestCitationString(t *testing.T) {
	tests := []struct {
		c    Citation
		want string
	}{
		{Citation{Volume: 95, Page: 1365, Year: 1993}, "95:1365 (1993)"},
		{Citation{Volume: 1, Page: 1, Year: 2000}, "1:1 (2000)"},
		{Citation{}, ""},
	}
	for _, tt := range tests {
		if got := tt.c.String(); got != tt.want {
			t.Errorf("Citation%+v.String() = %q, want %q", tt.c, got, tt.want)
		}
	}
}

func TestCitationAppendToMatchesSprintf(t *testing.T) {
	// AppendTo must write what "%d:%d (%d)" would, after whatever dst
	// already holds, for any field values, negative and extreme included.
	f := func(v, p, y int) bool {
		c := Citation{Volume: v, Page: p, Year: y}
		want := "x" + fmt.Sprintf("%d:%d (%d)", v, p, y)
		if c == (Citation{}) {
			want = "x"
		}
		return string(c.AppendTo([]byte("x"))) == want && c.String() == want[1:]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	for _, c := range []Citation{{}, {Volume: math.MinInt, Page: math.MaxInt, Year: -1}, {Page: 1}} {
		if !f(c.Volume, c.Page, c.Year) {
			t.Errorf("Citation%+v: AppendTo differs from Sprintf", c)
		}
	}
}

func TestCitationValidate(t *testing.T) {
	tests := []struct {
		name string
		c    Citation
		ok   bool
	}{
		{"valid", Citation{95, 1365, 1993}, true},
		{"zero volume", Citation{0, 1, 1993}, false},
		{"negative page", Citation{1, -3, 1993}, false},
		{"ancient year", Citation{1, 1, 1500}, false},
		{"future year ok", Citation{1, 1, 2099}, true},
		{"absurd year", Citation{1, 1, 10000}, false},
	}
	for _, tt := range tests {
		err := tt.c.Validate()
		if (err == nil) != tt.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tt.name, err, tt.ok)
		}
	}
}

func TestCitationCompare(t *testing.T) {
	a := Citation{94, 563, 1992}
	tests := []struct {
		b    Citation
		want int
	}{
		{Citation{94, 563, 1992}, 0},
		{Citation{95, 1, 1993}, -1},
		{Citation{93, 999, 1991}, 1},
		{Citation{94, 564, 1992}, -1},
		{Citation{94, 563, 1993}, -1},
	}
	for _, tt := range tests {
		if got := a.Compare(tt.b); got != tt.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", a, tt.b, got, tt.want)
		}
	}
}

func TestKindRoundTrip(t *testing.T) {
	for k := Kind(0); k < kindMax; k++ {
		got, err := ParseKind(k.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Errorf("ParseKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if _, err := ParseKind("sonnet"); err == nil {
		t.Error("ParseKind accepted unknown kind")
	}
	if Kind(200).Valid() {
		t.Error("Kind(200) reported valid")
	}
}

func TestAuthorDisplay(t *testing.T) {
	tests := []struct {
		a    Author
		want string
	}{
		{Author{Family: "Abdalla", Given: "Tarek F.", Student: true}, "Abdalla, Tarek F.*"},
		{Author{Family: "Tol", Particle: "Van", Given: "Joan E."}, "Van Tol, Joan E."},
		{Author{Family: "Fisher", Given: "John W.", Suffix: "II"}, "Fisher, John W., II"},
		{Author{Family: "Adler"}, "Adler"},
	}
	for _, tt := range tests {
		if got := tt.a.Display(); got != tt.want {
			t.Errorf("Display() = %q, want %q", got, tt.want)
		}
	}
	// AppendDisplay appends what Display returns, for any fields.
	f := func(particle, family, given, suffix string, student bool) bool {
		a := Author{Family: family, Given: given, Particle: particle, Suffix: suffix, Student: student}
		return string(a.AppendDisplay([]byte("x"))) == "x"+a.Display()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	for _, tt := range tests {
		if !f(tt.a.Particle, tt.a.Family, tt.a.Given, tt.a.Suffix, tt.a.Student) {
			t.Errorf("AppendDisplay(%+v) differs from Display", tt.a)
		}
	}
}

func TestAuthorNaturalOrder(t *testing.T) {
	a := Author{Family: "Tol", Particle: "Van", Given: "Joan E.", Suffix: "Jr."}
	if got, want := a.NaturalOrder(), "Joan E. Van Tol, Jr."; got != want {
		t.Errorf("NaturalOrder() = %q, want %q", got, want)
	}
}

func TestAuthorValidate(t *testing.T) {
	if err := (Author{Given: "No Family"}).Validate(); err == nil {
		t.Error("author without family name validated")
	}
	if err := (Author{Family: "Tab\tName"}).Validate(); err == nil {
		t.Error("author with tab in name validated")
	}
	if err := (Author{Family: "Okay"}).Validate(); err != nil {
		t.Errorf("valid author rejected: %v", err)
	}
}

func TestWorkValidate(t *testing.T) {
	base := validWork()
	if err := base.Validate(); err != nil {
		t.Fatalf("valid work rejected: %v", err)
	}
	mutations := []struct {
		name string
		f    func(*Work)
	}{
		{"empty title", func(w *Work) { w.Title = "  " }},
		{"tab in title", func(w *Work) { w.Title = "a\tb" }},
		{"no authors", func(w *Work) { w.Authors = nil }},
		{"bad author", func(w *Work) { w.Authors[0].Family = "" }},
		{"bad citation", func(w *Work) { w.Citation.Volume = 0 }},
		{"bad kind", func(w *Work) { w.Kind = Kind(99) }},
	}
	for _, m := range mutations {
		w := validWork()
		m.f(w)
		if err := w.Validate(); err == nil {
			t.Errorf("%s: Validate() accepted invalid work", m.name)
		}
	}
	var nilWork *Work
	if err := nilWork.Validate(); err == nil {
		t.Error("nil work validated")
	}
}

func TestWorkCloneIsDeep(t *testing.T) {
	w := validWork()
	c := w.Clone()
	if !w.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	c.Authors[0].Family = "Changed"
	if w.Authors[0].Family == "Changed" {
		t.Error("mutating clone changed original authors")
	}
	if (*Work)(nil).Clone() != nil {
		t.Error("Clone of nil should be nil")
	}
}

func TestWorkEqual(t *testing.T) {
	a, b := validWork(), validWork()
	if !a.Equal(b) {
		t.Fatal("identical works unequal")
	}
	b.Authors = b.Authors[:1]
	if a.Equal(b) {
		t.Error("works with different author counts equal")
	}
	var n *Work
	if a.Equal(n) || !n.Equal(nil) {
		t.Error("nil comparison wrong")
	}
}

func TestWorkString(t *testing.T) {
	s := validWork().String()
	for _, want := range []string{"#7", "Lewin, Jeff L.", "Unlocking the Fire", "94:563 (1992)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	if got := (*Work)(nil).String(); got != "<nil work>" {
		t.Errorf("nil String() = %q", got)
	}
}

func TestVolumeString(t *testing.T) {
	v := Volume{Publication: "Proc. VLDB", Number: 26, Year: 2000}
	if got, want := v.String(), "Proc. VLDB vol. 26 (2000)"; got != want {
		t.Errorf("Volume.String() = %q, want %q", got, want)
	}
	if got := (Volume{}).String(); got != "" {
		t.Errorf("zero Volume.String() = %q, want empty", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	w := validWork()
	buf := AppendWork(nil, w)
	got, n, err := DecodeWork(buf)
	if err != nil {
		t.Fatalf("DecodeWork: %v", err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d of %d bytes", n, len(buf))
	}
	if !got.Equal(w) {
		t.Errorf("round trip mismatch:\n got %v\nwant %v", got, w)
	}
}

func TestEncodeDecodeConcatenated(t *testing.T) {
	// Two works back to back must decode with correct consumption offsets.
	a, b := validWork(), validWork()
	b.ID, b.Title = 8, "Second Work"
	buf := AppendWork(AppendWork(nil, a), b)
	first, n, err := DecodeWork(buf)
	if err != nil {
		t.Fatal(err)
	}
	second, m, err := DecodeWork(buf[n:])
	if err != nil {
		t.Fatal(err)
	}
	if n+m != len(buf) {
		t.Errorf("consumed %d+%d of %d", n, m, len(buf))
	}
	if !first.Equal(a) || !second.Equal(b) {
		t.Error("concatenated decode mismatch")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	good := AppendWork(nil, validWork())
	// Truncation at every prefix length must fail cleanly, never panic.
	for i := 0; i < len(good); i++ {
		if _, _, err := DecodeWork(good[:i]); err == nil {
			t.Errorf("truncated decode at %d bytes succeeded", i)
		}
	}
	// Wrong version byte.
	bad := append([]byte{99}, good[1:]...)
	if _, _, err := DecodeWork(bad); err == nil {
		t.Error("wrong version accepted")
	}
	// Absurd author count must be rejected without huge allocation.
	w := validWork()
	w.Authors = nil
	buf := AppendWork(nil, w)
	// The final uvarint is the author count (0); replace it with a huge one.
	huge := append(buf[:len(buf)-1], 0xff, 0xff, 0xff, 0xff, 0x7f)
	if _, _, err := DecodeWork(huge); err == nil {
		t.Error("absurd author count accepted")
	}
}

func TestSubjectsRoundTripAndValidation(t *testing.T) {
	w := validWork()
	w.Subjects = []string{"Mining Law", "Property"}
	if err := w.Validate(); err != nil {
		t.Fatalf("subjects rejected: %v", err)
	}
	buf := AppendWork(nil, w)
	got, n, err := DecodeWork(buf)
	if err != nil || n != len(buf) || !got.Equal(w) {
		t.Fatalf("subject round trip: %v (n=%d)", err, n)
	}
	// Clone deep-copies subjects.
	c := w.Clone()
	c.Subjects[0] = "Changed"
	if w.Subjects[0] == "Changed" {
		t.Error("Clone shares subjects slice")
	}
	// Equal notices subject differences.
	d := validWork()
	d.Subjects = []string{"Mining Law"}
	if w.Equal(d) {
		t.Error("Equal ignored subjects")
	}
	// Validation failures.
	bad := validWork()
	bad.Subjects = []string{"  "}
	if err := bad.Validate(); err == nil {
		t.Error("blank subject accepted")
	}
	bad.Subjects = []string{"a\tb"}
	if err := bad.Validate(); err == nil {
		t.Error("tab in subject accepted")
	}
}

func TestDecodeVersion1BackCompat(t *testing.T) {
	// A version-1 record is a version-2 record minus the subject section;
	// build one by stripping the trailing zero subject count.
	w := validWork()
	buf := AppendWork(nil, w)
	v1 := append([]byte(nil), buf[:len(buf)-1]...) // drop subject count (0)
	v1[0] = 1                                      // stamp old version
	got, n, err := DecodeWork(v1)
	if err != nil {
		t.Fatalf("v1 decode: %v", err)
	}
	if n != len(v1) || !got.Equal(w) {
		t.Errorf("v1 decode mismatch: n=%d got=%v", n, got)
	}
	// Future versions are rejected.
	v9 := append([]byte(nil), buf...)
	v9[0] = 9
	if _, _, err := DecodeWork(v9); err == nil {
		t.Error("future version accepted")
	}
}

// quickWork builds a structurally valid work from fuzz inputs.
func quickWork(r *rand.Rand) *Work {
	sanitize := func(s string) string {
		s = strings.Map(func(c rune) rune {
			if c == '\t' || c == '\n' || c == '\r' {
				return ' '
			}
			return c
		}, s)
		return s
	}
	randStr := func() string {
		n := r.Intn(12)
		b := make([]rune, n)
		for i := range b {
			b[i] = rune(32 + r.Intn(500)) // include multibyte runes
		}
		return sanitize(string(b))
	}
	w := &Work{
		ID:    WorkID(r.Uint64()),
		Title: "t" + randStr(),
		Kind:  Kind(r.Intn(int(kindMax))),
		Citation: Citation{
			Volume: 1 + r.Intn(200),
			Page:   1 + r.Intn(3000),
			Year:   1900 + r.Intn(150),
		},
	}
	for i := 0; i <= r.Intn(4); i++ {
		w.Authors = append(w.Authors, Author{
			Family:   "f" + randStr(),
			Given:    randStr(),
			Particle: randStr(),
			Suffix:   randStr(),
			Student:  r.Intn(2) == 0,
		})
	}
	return w
}

func TestEncodeDecodeQuick(t *testing.T) {
	f := func(seed int64) bool {
		w := quickWork(rand.New(rand.NewSource(seed)))
		buf := AppendWork(nil, w)
		got, n, err := DecodeWork(buf)
		return err == nil && n == len(buf) && got.Equal(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecodeNeverPanicsQuick(t *testing.T) {
	// Random byte soup must never panic the decoder.
	f := func(p []byte) bool {
		defer func() {
			if rec := recover(); rec != nil {
				t.Fatalf("DecodeWork panicked on %x: %v", p, rec)
			}
		}()
		w, n, err := DecodeWork(p)
		if err == nil {
			// On success, re-encoding and re-decoding must be a fixed point
			// (byte equality can differ for non-canonical varints in p).
			re := AppendWork(nil, w)
			w2, m, err2 := DecodeWork(re)
			return n <= len(p) && err2 == nil && m == len(re) && w2.Equal(w)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestScanWorkMatchesDecode pins ScanWork to DecodeWork on version-1
// and version-2 records, back to back and truncated at every length,
// and checks that a scan allocates nothing.
func TestScanWorkMatchesDecode(t *testing.T) {
	w := validWork()
	w.Subjects = []string{"Mining Law", "Property"}
	v2 := AppendWork(nil, w)
	w.Subjects = nil
	v1 := AppendWork(nil, w)
	v1 = v1[:len(v1)-1] // drop the subject count
	v1[0] = 1
	for _, rec := range [][]byte{v1, v2} {
		buf := append(append([]byte(nil), rec...), v2...)
		id, n, err := ScanWork(buf)
		if err != nil || id != w.ID || n != len(rec) {
			t.Fatalf("version %d: ScanWork = (%d, %d, %v), want (%d, %d)", rec[0], id, n, err, w.ID, len(rec))
		}
		for i := 0; i < len(rec); i++ {
			if _, _, err := ScanWork(rec[:i]); err == nil {
				t.Errorf("version %d: truncated scan at %d bytes succeeded", rec[0], i)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { ScanWork(buf) }); allocs != 0 {
			t.Errorf("version %d: ScanWork allocates %.0f times", rec[0], allocs)
		}
	}
	if _, _, err := ScanWork(append([]byte{9}, v2[1:]...)); err == nil {
		t.Error("future version accepted")
	}
}
