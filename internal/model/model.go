// Package model defines the bibliographic record types shared by every
// component of the author-index engine: authors, works, citations and
// volumes. The types are plain data with validation helpers; persistence
// encodings live in encode.go.
package model

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// WorkID uniquely identifies a work within one store. IDs are allocated
// monotonically by the storage layer and are never reused.
type WorkID uint64

// Kind classifies a work the way front matter traditionally does.
type Kind uint8

// Work kinds. KindArticle is the zero value and the default.
const (
	KindArticle Kind = iota
	KindStudentNote
	KindEssay
	KindBookReview
	KindComment
	KindCaseNote
	KindTribute
	kindMax // sentinel: all valid kinds are < kindMax
)

// KindCount is the number of defined kinds; every valid Kind is below it.
const KindCount = int(kindMax)

var kindNames = [...]string{
	KindArticle:     "article",
	KindStudentNote: "student-note",
	KindEssay:       "essay",
	KindBookReview:  "book-review",
	KindComment:     "comment",
	KindCaseNote:    "case-note",
	KindTribute:     "tribute",
}

// String returns the lowercase hyphenated name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Valid reports whether k is one of the defined kinds.
func (k Kind) Valid() bool { return k < kindMax }

// ParseKind converts a kind name (as produced by Kind.String) back into a
// Kind. It returns an error for unknown names.
func ParseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("model: unknown kind %q", s)
}

// Citation locates a work inside a publication run: volume, first page and
// publication year, rendered in the traditional "vol:page (year)" form.
type Citation struct {
	Volume int
	Page   int
	Year   int
}

// String renders the citation as "95:1365 (1993)". A zero citation renders
// as an empty string.
func (c Citation) String() string {
	var buf [32]byte
	return string(c.AppendTo(buf[:0]))
}

// AppendTo appends the citation as String renders it to dst and returns
// the extended buffer; a zero citation appends nothing.
func (c Citation) AppendTo(dst []byte) []byte {
	if c == (Citation{}) {
		return dst
	}
	dst = strconv.AppendInt(dst, int64(c.Volume), 10)
	dst = append(dst, ':')
	dst = strconv.AppendInt(dst, int64(c.Page), 10)
	dst = append(dst, " ("...)
	dst = strconv.AppendInt(dst, int64(c.Year), 10)
	return append(dst, ')')
}

// Validate reports whether the citation fields are individually plausible.
func (c Citation) Validate() error {
	switch {
	case c.Volume <= 0:
		return fmt.Errorf("model: citation volume %d out of range", c.Volume)
	case c.Page <= 0:
		return fmt.Errorf("model: citation page %d out of range", c.Page)
	case c.Year < 1600 || c.Year > 9999:
		return fmt.Errorf("model: citation year %d out of range", c.Year)
	}
	return nil
}

// Compare orders citations by volume, then page, then year. It returns a
// negative, zero, or positive value in the manner of strings.Compare.
func (c Citation) Compare(o Citation) int {
	switch {
	case c.Volume != o.Volume:
		return cmpInt(c.Volume, o.Volume)
	case c.Page != o.Page:
		return cmpInt(c.Page, o.Page)
	default:
		return cmpInt(c.Year, o.Year)
	}
}

func cmpInt(a, b int) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Author is one structured author name. Names are stored decomposed so
// that collation, rendering and matching can each make their own choices.
//
// Family is required; every other field may be empty. Particle holds
// nobiliary particles ("van", "de la") that precede the family name in
// natural order but are usually ignored for primary sorting. Student marks
// student-written material, rendered as a trailing asterisk in the
// traditional format.
type Author struct {
	Family   string
	Given    string
	Particle string
	Suffix   string
	Student  bool
}

// IsZero reports whether the author has no name at all.
func (a Author) IsZero() bool {
	return a.Family == "" && a.Given == "" && a.Particle == "" && a.Suffix == ""
}

// Validate checks the structural invariants of an author record.
func (a Author) Validate() error {
	if strings.TrimSpace(a.Family) == "" {
		return errors.New("model: author family name is required")
	}
	for _, part := range [...]struct{ name, v string }{
		{"family", a.Family}, {"given", a.Given},
		{"particle", a.Particle}, {"suffix", a.Suffix},
	} {
		if strings.ContainsAny(part.v, "\t\n\r") {
			return fmt.Errorf("model: author %s name contains control characters", part.name)
		}
	}
	return nil
}

// Display renders the author in index order: "Family, Given, Suffix" with
// the particle folded back in front of the family name and a trailing
// asterisk for student material, e.g. "Van Tol, Joan E." or
// "Abdalla, Tarek F.*".
func (a Author) Display() string {
	var b strings.Builder
	b.Grow(len(a.Particle) + len(a.Family) + len(a.Given) + len(a.Suffix) + 6)
	if a.Particle != "" {
		b.WriteString(a.Particle)
		b.WriteByte(' ')
	}
	b.WriteString(a.Family)
	if a.Given != "" {
		b.WriteString(", ")
		b.WriteString(a.Given)
	}
	if a.Suffix != "" {
		b.WriteString(", ")
		b.WriteString(a.Suffix)
	}
	if a.Student {
		b.WriteByte('*')
	}
	return b.String()
}

// AppendDisplay appends the heading Display renders to dst and returns
// the extended buffer. Display stays separate so that it makes one
// allocation, of the exact size, at any name length.
func (a Author) AppendDisplay(dst []byte) []byte {
	if a.Particle != "" {
		dst = append(append(dst, a.Particle...), ' ')
	}
	dst = append(dst, a.Family...)
	if a.Given != "" {
		dst = append(append(dst, ", "...), a.Given...)
	}
	if a.Suffix != "" {
		dst = append(append(dst, ", "...), a.Suffix...)
	}
	if a.Student {
		dst = append(dst, '*')
	}
	return dst
}

// DisplayMemo memoizes Author.Display across a whole-corpus pass, where
// the same author recurs once per work and heading construction would
// otherwise dominate. A nil memo passes through to Display; engines
// attach one for the duration of a rebuild and drop it afterwards. Not
// safe for concurrent use.
type DisplayMemo map[Author]string

// Display returns a.Display(), memoized when m is non-nil.
func (m DisplayMemo) Display(a Author) string {
	if m == nil {
		return a.Display()
	}
	h, ok := m[a]
	if !ok {
		h = a.Display()
		m[a] = h
	}
	return h
}

// NaturalOrder renders the author in reading order: "Joan E. Van Tol".
func (a Author) NaturalOrder() string {
	var parts []string
	if a.Given != "" {
		parts = append(parts, a.Given)
	}
	if a.Particle != "" {
		parts = append(parts, a.Particle)
	}
	parts = append(parts, a.Family)
	s := strings.Join(parts, " ")
	if a.Suffix != "" {
		s += ", " + a.Suffix
	}
	return s
}

// Equal reports whether two authors are identical field-for-field.
func (a Author) Equal(o Author) bool { return a == o }

// Work is one indexed publication: a title, its authors, and where it
// appears. The zero Work is invalid; use Validate before storing.
type Work struct {
	ID       WorkID
	Title    string
	Kind     Kind
	Authors  []Author
	Citation Citation
	// Subjects are optional editorial classification headings; the
	// subject index files the work under each of them.
	Subjects []string
}

// Validate checks that the work can be indexed: it must have a title, at
// least one valid author, a plausible citation and a known kind.
func (w *Work) Validate() error {
	if w == nil {
		return errors.New("model: nil work")
	}
	if strings.TrimSpace(w.Title) == "" {
		return errors.New("model: work title is required")
	}
	if strings.ContainsAny(w.Title, "\t\n\r") {
		return errors.New("model: work title contains control characters")
	}
	if !w.Kind.Valid() {
		return fmt.Errorf("model: invalid kind %d", uint8(w.Kind))
	}
	if len(w.Authors) == 0 {
		return errors.New("model: work needs at least one author")
	}
	for i := range w.Authors {
		if err := w.Authors[i].Validate(); err != nil {
			return fmt.Errorf("author %d: %w", i, err)
		}
	}
	if err := w.Citation.Validate(); err != nil {
		return err
	}
	for i, s := range w.Subjects {
		if strings.TrimSpace(s) == "" {
			return fmt.Errorf("model: subject %d is empty", i)
		}
		if strings.ContainsAny(s, "\t\n\r") {
			return fmt.Errorf("model: subject %d contains control characters", i)
		}
	}
	return nil
}

// Clone returns a deep copy of the work. The authors and subjects
// slices are copied so the clone may be mutated independently.
func (w *Work) Clone() *Work {
	if w == nil {
		return nil
	}
	c := *w
	c.Authors = make([]Author, len(w.Authors))
	copy(c.Authors, w.Authors)
	if w.Subjects != nil {
		c.Subjects = make([]string, len(w.Subjects))
		copy(c.Subjects, w.Subjects)
	}
	return &c
}

// Equal reports whether two works are identical, including IDs.
func (w *Work) Equal(o *Work) bool {
	if w == nil || o == nil {
		return w == o
	}
	if w.ID != o.ID || w.Title != o.Title || w.Kind != o.Kind || w.Citation != o.Citation {
		return false
	}
	if len(w.Authors) != len(o.Authors) || len(w.Subjects) != len(o.Subjects) {
		return false
	}
	for i := range w.Authors {
		if w.Authors[i] != o.Authors[i] {
			return false
		}
	}
	for i := range w.Subjects {
		if w.Subjects[i] != o.Subjects[i] {
			return false
		}
	}
	return true
}

// String renders a one-line summary of the work for logs and errors.
func (w *Work) String() string {
	if w == nil {
		return "<nil work>"
	}
	names := make([]string, len(w.Authors))
	for i, a := range w.Authors {
		names[i] = a.Display()
	}
	return fmt.Sprintf("#%d %s — %q %s", w.ID, strings.Join(names, "; "), w.Title, w.Citation)
}

// Volume describes one bound volume of a publication run; it exists so
// renderers can emit accurate running heads.
type Volume struct {
	Publication string // e.g. "W. VA. L. REV." or "Proc. VLDB"
	Number      int
	Year        int
}

// String renders "Publication vol. N (Year)".
func (v Volume) String() string {
	if v.Publication == "" && v.Number == 0 {
		return ""
	}
	return fmt.Sprintf("%s vol. %d (%d)", v.Publication, v.Number, v.Year)
}
