// Package collate builds memcmp-able sort keys for author names and plain
// strings, implementing the alphabetization rules indexes actually use:
// diacritic-insensitive primary ordering, letter-by-letter or word-by-word
// schemes, optional Mc→Mac expansion, and generational suffix ordering.
//
// Keys are byte strings such that bytes.Compare(Key(a), Key(b)) orders
// entries exactly as the index should print them, so ordered containers
// need no callback comparators and keys can be stored durably.
//
// Key layout (three tiers separated by 0x01, terminated implicitly):
//
//	primary   folded base letters; field separator 0x02; word separator
//	          0x03 (word-by-word scheme only)
//	secondary lower-cased original bytes (diacritics distinguish here)
//	tertiary  original bytes (case distinguishes here)
//
// All structural bytes (0x01–0x03) sort below every letter and digit, so
// "Smith" sorts before "Smithe" and (word-by-word) "De Long" before
// "Deford".
package collate

import (
	"strings"

	"repro/internal/model"
	"repro/internal/names"
)

// Scheme selects how multi-word names interleave.
type Scheme uint8

const (
	// LetterByLetter ignores spaces, hyphens and apostrophes entirely:
	// "De Long" sorts as "delong", after "Deford".
	LetterByLetter Scheme = iota
	// WordByWord treats a word break as sorting before any letter:
	// "De Long" sorts before "Deford". This is the convention most
	// author indexes (and this package's default Options) use.
	WordByWord
)

// String names the scheme.
func (s Scheme) String() string {
	if s == WordByWord {
		return "word-by-word"
	}
	return "letter-by-letter"
}

// Options configures key construction. The zero value is letter-by-letter
// with no Mc expansion; use Default() for the conventional index setup.
type Options struct {
	Scheme Scheme
	// McAsMac expands a leading "Mc" in family names to "Mac" for primary
	// ordering, interfiling McDonald with MacDonald.
	McAsMac bool
	// GroupParticle, when set, sorts "Van Tol" under V (particle included
	// in the primary key). When clear, particles are ignored at the
	// primary tier and "Van Tol" files under T.
	GroupParticle bool
}

// Default returns the conventional configuration: word-by-word, Mc→Mac
// off, particles grouped (filed under the particle, as the source
// material's index does: "Van Tol" under V).
func Default() Options {
	return Options{Scheme: WordByWord, GroupParticle: true}
}

// Structural bytes. All are below '0' (0x30) and 'a' (0x61).
const (
	tierSep  = 0x01
	fieldSep = 0x02
	wordSep  = 0x03
)

// suffixRank orders generational suffixes the way genealogy does rather
// than alphabetically: Sr. precedes Jr. precedes II, III, IV, V. Unknown
// suffixes rank after all known ones and fall back to folded-text order.
var suffixRank = map[string]byte{
	"":     0,
	"sr.":  1,
	"jr.":  2,
	"ii":   3,
	"iii":  4,
	"iv":   5,
	"v":    6,
	"esq.": 7,
}

// KeyAuthor builds the sort key for an author under the given options.
func KeyAuthor(a model.Author, o Options) []byte {
	orig := a.Display()
	// The primary tier is at most the display form plus separators; the
	// other two tiers are the display form, so one allocation suffices.
	b := keyBuilder{buf: make([]byte, 0, 3*len(orig)+8), opts: o}

	// --- primary tier ---
	fam := a.Family
	if o.McAsMac {
		fam = expandMc(fam)
	}
	if o.GroupParticle && a.Particle != "" {
		b.primaryText(a.Particle)
		b.primaryWordBreak()
	}
	b.primaryText(fam)
	b.buf = append(b.buf, fieldSep)
	b.primaryText(a.Given)
	b.buf = append(b.buf, fieldSep)
	b.buf = append(b.buf, suffixByte(a.Suffix))
	b.primaryText(a.Suffix)
	if !o.GroupParticle && a.Particle != "" {
		// Particle still breaks ties between otherwise-identical names.
		b.buf = append(b.buf, fieldSep)
		b.primaryText(a.Particle)
	}

	// --- secondary and tertiary tiers ---
	b.buf = append(b.buf, tierSep)
	b.buf = append(b.buf, strings.ToLower(orig)...)
	b.buf = append(b.buf, tierSep)
	b.buf = append(b.buf, orig...)
	return b.buf
}

// KeyString builds a sort key for an arbitrary string (titles, headings)
// using the same tier rules.
func KeyString(s string, o Options) []byte {
	b := keyBuilder{buf: make([]byte, 0, 3*len(s)+2), opts: o}
	b.primaryText(s)
	b.buf = append(b.buf, tierSep)
	b.buf = append(b.buf, strings.ToLower(s)...)
	b.buf = append(b.buf, tierSep)
	b.buf = append(b.buf, s...)
	return b.buf
}

// PrimaryPrefix returns the primary-tier key bytes for a string prefix;
// useful for prefix scans over keys built by KeyAuthor/KeyString. The
// result contains no tier separator, so it prefix-matches full keys whose
// primary tier begins with the folded prefix.
func PrimaryPrefix(s string, o Options) []byte {
	b := keyBuilder{buf: make([]byte, 0, len(s)), opts: o}
	b.primaryText(s)
	return b.buf
}

// Compare orders two authors under o; it is the reference semantics that
// bytes.Compare over KeyAuthor must agree with.
func Compare(a, b model.Author, o Options) int {
	ka, kb := KeyAuthor(a, o), KeyAuthor(b, o)
	return compareBytes(ka, kb)
}

func compareBytes(a, b []byte) int {
	switch {
	case string(a) < string(b):
		return -1
	case string(a) > string(b):
		return 1
	}
	return 0
}

// FirstLetter returns the upper-case section letter an author files under
// ('A'–'Z'), or '#' when the primary key starts with a non-letter.
func FirstLetter(a model.Author, o Options) byte {
	head := a.Family
	if o.GroupParticle && a.Particle != "" {
		head = a.Particle
	}
	if o.McAsMac {
		head = expandMc(head)
	}
	folded := names.Fold(head)
	for i := 0; i < len(folded); i++ {
		c := folded[i]
		switch {
		case c >= 'a' && c <= 'z':
			return c - 'a' + 'A'
		case c >= '0' && c <= '9' || c >= 0x80:
			// Digit-led and non-Latin headings file under the symbol
			// section rather than a letter.
			return '#'
		}
		// Leading punctuation ("'t Hooft") is skipped.
	}
	return '#'
}

type keyBuilder struct {
	buf  []byte
	opts Options
}

// primaryText appends the folded primary-tier bytes of s.
func (b *keyBuilder) primaryText(s string) {
	for _, r := range s {
		switch {
		case r == ' ' || r == ' ':
			b.primaryWordBreak()
		case r == '-' || r == '\'' || r == '.' || r == ',' || r == '’':
			// joined punctuation: letter-by-letter always drops it;
			// word-by-word treats hyphen as a word break.
			if r == '-' {
				b.primaryWordBreak()
			}
		default:
			b.buf = names.AppendFoldRune(b.buf, r)
		}
	}
}

func (b *keyBuilder) primaryWordBreak() {
	if b.opts.Scheme != WordByWord {
		return
	}
	// Collapse runs of breaks; never lead with one.
	if n := len(b.buf); n > 0 && b.buf[n-1] != wordSep && b.buf[n-1] != fieldSep {
		b.buf = append(b.buf, wordSep)
	}
}

func suffixByte(suffix string) byte {
	if r, ok := suffixRank[strings.ToLower(strings.TrimSpace(suffix))]; ok {
		return r + '0' // keep ranks printable and above structural bytes
	}
	return 'z' // unknown suffixes sort last, then by folded text
}

// expandMc rewrites a leading "Mc" (capital M, lowercase c, then an
// upper-case letter) as "Mac" so McDonald interfiles with MacDonald.
func expandMc(fam string) string {
	if len(fam) >= 3 && fam[0] == 'M' && fam[1] == 'c' && fam[2] >= 'A' && fam[2] <= 'Z' {
		return "Mac" + fam[2:]
	}
	return fam
}
