// Package names parses and normalizes personal names as they appear in
// author indexes: inverted "Family, Given, Suffix" strings with optional
// nobiliary particles, generational suffixes, and the trailing asterisk
// that marks student-written material. It also provides locale-free
// diacritic folding used for matching and collation.
package names

import (
	"errors"
	"fmt"
	"strings"
	"unicode"

	"repro/internal/model"
)

// ErrEmpty is returned when a name string contains no usable content.
var ErrEmpty = errors.New("names: empty name")

// suffixes recognized as generational or honorific suffixes when they
// appear as a comma-separated trailing component. Keys are upper-case
// fold(token) forms; values are the canonical rendering.
var suffixes = map[string]string{
	"JR":   "Jr.",
	"JR.":  "Jr.",
	"SR":   "Sr.",
	"SR.":  "Sr.",
	"II":   "II",
	"III":  "III",
	"IV":   "IV",
	"V":    "V",
	"ESQ":  "Esq.",
	"ESQ.": "Esq.",
	"M.D.": "M.D.",
	"PH.D": "Ph.D.",
}

// particles are nobiliary particles recognized at the head of a family
// name ("Van Tol", "de la Cruz"). Lookup is case-insensitive.
var particles = map[string]bool{
	"van": true, "von": true, "de": true, "del": true, "della": true,
	"da": true, "di": true, "dos": true, "du": true, "la": true,
	"le": true, "der": true, "den": true, "ter": true, "ten": true,
	"st.": true, "saint": true, "al": true, "el": true, "bin": true,
	"ibn": true, "af": true, "av": true, "zu": true, "zur": true,
}

// CanonicalSuffix normalizes a suffix token ("JR", "jr.") to its canonical
// form ("Jr."); ok is false when the token is not a known suffix.
func CanonicalSuffix(tok string) (canon string, ok bool) {
	canon, ok = suffixes[strings.ToUpper(strings.TrimSpace(tok))]
	return canon, ok
}

// IsParticle reports whether tok is a recognized nobiliary particle.
func IsParticle(tok string) bool {
	return particles[strings.ToLower(strings.TrimSpace(tok))]
}

// Parse converts an index-order name string into a structured author.
//
// Accepted shapes (student asterisk may trail any of them):
//
//	"Abdalla, Tarek F.*"        → Family, Given, Student
//	"Fisher, John W., II"       → Family, Given, Suffix
//	"Van Tol, Joan E."          → Particle, Family, Given
//	"Adler"                     → Family only
//	"de la Cruz, Maria"         → multi-word particle
//
// Parse never guesses a natural-order interpretation: a string without a
// comma is treated as a bare family name (possibly with particles).
func Parse(s string) (model.Author, error) {
	var a model.Author
	s = strings.TrimSpace(s)
	if s == "" {
		return a, ErrEmpty
	}
	// Student-note marker: the footnote convention attaches an asterisk
	// to the name; treat one anywhere (conventionally trailing) as the
	// marker and strip every occurrence so names stay asterisk-free.
	if strings.Contains(s, "*") {
		a.Student = true
		s = strings.TrimSpace(strings.ReplaceAll(s, "*", ""))
	}
	if s == "" {
		return model.Author{}, ErrEmpty
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	// Drop empty trailing components left by a stripped marker
	// ("Name, J.,*" → "Name, J.,").
	for len(parts) > 1 && parts[len(parts)-1] == "" {
		parts = parts[:len(parts)-1]
	}
	// Family (with possible particles) is the first component. A family
	// name must contain at least one letter or digit; pure punctuation
	// (e.g. a stray "*") is not a heading.
	a.Particle, a.Family = splitParticle(parts[0])
	if a.Family == "" || !hasWordChar(a.Family) {
		return model.Author{}, fmt.Errorf("names: %q has no family name", s)
	}
	rest := parts[1:]
	// A trailing known suffix component becomes the suffix.
	if n := len(rest); n > 0 {
		if canon, ok := CanonicalSuffix(rest[n-1]); ok {
			a.Suffix = canon
			rest = rest[:n-1]
		}
	}
	// Everything else is the given name(s). Multiple leftover components
	// (rare: "Name, Given, Extra") are joined with a space.
	given := make([]string, 0, len(rest))
	for _, r := range rest {
		if r != "" {
			given = append(given, r)
		}
	}
	a.Given = strings.Join(given, " ")
	return a, nil
}

// MustParse is Parse for tests and static tables; it panics on error.
func MustParse(s string) model.Author {
	a, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return a
}

// splitParticle separates leading nobiliary particles from a family-name
// string: "Van der Berg" → ("Van der", "Berg"). All words but the last
// must be particles for the split to apply; otherwise the whole string is
// the family name (so "Smith Jones" stays a compound family name).
func splitParticle(fam string) (particle, family string) {
	words := strings.Fields(fam)
	if len(words) < 2 {
		return "", strings.Join(words, " ")
	}
	cut := 0
	for cut < len(words)-1 && IsParticle(words[cut]) {
		cut++
	}
	if cut == 0 {
		return "", strings.Join(words, " ")
	}
	return strings.Join(words[:cut], " "), strings.Join(words[cut:], " ")
}

// Format renders the author in canonical index order; it is the inverse
// of Parse for every author Parse can produce.
func Format(a model.Author) string { return a.Display() }

// hasWordChar reports whether s contains at least one letter or digit.
func hasWordChar(s string) bool {
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			return true
		}
	}
	return false
}

// Key returns a fold-normalized matching key for the author: particle,
// family and given names folded and lower-cased, suffix canonicalized.
// Two spellings of the same name ("Muller" / "Müller") share a key.
func Key(a model.Author) string {
	var b strings.Builder
	b.WriteString(Fold(a.Family))
	b.WriteByte('|')
	b.WriteString(Fold(a.Given))
	b.WriteByte('|')
	b.WriteString(Fold(a.Particle))
	b.WriteByte('|')
	b.WriteString(strings.ToLower(a.Suffix))
	return b.String()
}
