package names

import (
	"unicode"
	"unicode/utf8"
)

// foldTable maps accented and ligature runes from Latin-1 Supplement and
// Latin Extended-A/B to unaccented ASCII equivalents, following the
// conventions index compilers use (ß→ss, æ→ae, ø→o, Đ→D, Ł→L). Runes not
// present fold to themselves (after lower-casing).
var foldTable = map[rune]string{
	'À': "a", 'Á': "a", 'Â': "a", 'Ã': "a", 'Ä': "a", 'Å': "a", 'Ā': "a", 'Ă': "a", 'Ą': "a",
	'à': "a", 'á': "a", 'â': "a", 'ã': "a", 'ä': "a", 'å': "a", 'ā': "a", 'ă': "a", 'ą': "a",
	'Æ': "ae", 'æ': "ae",
	'Ç': "c", 'ç': "c", 'Ć': "c", 'ć': "c", 'Ĉ': "c", 'ĉ': "c", 'Ċ': "c", 'ċ': "c", 'Č': "c", 'č': "c",
	'Ď': "d", 'ď': "d", 'Đ': "d", 'đ': "d", 'Ð': "d", 'ð': "d",
	'È': "e", 'É': "e", 'Ê': "e", 'Ë': "e", 'Ē': "e", 'Ĕ': "e", 'Ė': "e", 'Ę': "e", 'Ě': "e",
	'è': "e", 'é': "e", 'ê': "e", 'ë': "e", 'ē': "e", 'ĕ': "e", 'ė': "e", 'ę': "e", 'ě': "e",
	'Ĝ': "g", 'ĝ': "g", 'Ğ': "g", 'ğ': "g", 'Ġ': "g", 'ġ': "g", 'Ģ': "g", 'ģ': "g",
	'Ĥ': "h", 'ĥ': "h", 'Ħ': "h", 'ħ': "h",
	'Ì': "i", 'Í': "i", 'Î': "i", 'Ï': "i", 'Ĩ': "i", 'Ī': "i", 'Ĭ': "i", 'Į': "i", 'İ': "i",
	'ì': "i", 'í': "i", 'î': "i", 'ï': "i", 'ĩ': "i", 'ī': "i", 'ĭ': "i", 'į': "i", 'ı': "i",
	'Ĵ': "j", 'ĵ': "j",
	'Ķ': "k", 'ķ': "k",
	'Ĺ': "l", 'ĺ': "l", 'Ļ': "l", 'ļ': "l", 'Ľ': "l", 'ľ': "l", 'Ł': "l", 'ł': "l",
	'Ñ': "n", 'ñ': "n", 'Ń': "n", 'ń': "n", 'Ņ': "n", 'ņ': "n", 'Ň': "n", 'ň': "n",
	'Ò': "o", 'Ó': "o", 'Ô': "o", 'Õ': "o", 'Ö': "o", 'Ø': "o", 'Ō': "o", 'Ŏ': "o", 'Ő': "o",
	'ò': "o", 'ó': "o", 'ô': "o", 'õ': "o", 'ö': "o", 'ø': "o", 'ō': "o", 'ŏ': "o", 'ő': "o",
	'Œ': "oe", 'œ': "oe",
	'Ŕ': "r", 'ŕ': "r", 'Ŗ': "r", 'ŗ': "r", 'Ř': "r", 'ř': "r",
	'Ś': "s", 'ś': "s", 'Ŝ': "s", 'ŝ': "s", 'Ş': "s", 'ş': "s", 'Š': "s", 'š': "s",
	'ß': "ss", 'ẞ': "ss",
	'Ţ': "t", 'ţ': "t", 'Ť': "t", 'ť': "t", 'Ŧ': "t", 'ŧ': "t",
	'Ù': "u", 'Ú': "u", 'Û': "u", 'Ü': "u", 'Ũ': "u", 'Ū': "u", 'Ŭ': "u", 'Ů': "u", 'Ű': "u", 'Ų': "u",
	'ù': "u", 'ú': "u", 'û': "u", 'ü': "u", 'ũ': "u", 'ū': "u", 'ŭ': "u", 'ů': "u", 'ű': "u", 'ų': "u",
	'Ŵ': "w", 'ŵ': "w",
	'Ý': "y", 'ý': "y", 'ÿ': "y", 'Ŷ': "y", 'ŷ': "y", 'Ÿ': "y",
	'Ź': "z", 'ź': "z", 'Ż': "z", 'ż': "z", 'Ž': "z", 'ž': "z",
	'Þ': "th", 'þ': "th",
}

// Fold lower-cases s and strips diacritics using foldTable; combining
// marks (category Mn) are removed so pre-decomposed input folds the same
// way as precomposed input. Characters with no mapping pass through
// lower-cased.
func Fold(s string) string {
	// Fast path: pure ASCII with no upper-case letters.
	ascii := true
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x80 || (c >= 'A' && c <= 'Z') {
			ascii = false
			break
		}
	}
	if ascii {
		return s
	}
	var stack [128]byte // fits most titles and names without a heap buffer
	b := stack[:0]
	for _, r := range s {
		b = AppendFoldRune(b, r)
	}
	return string(b)
}

// AppendFoldRune appends the unaccented lower-case expansion of r to dst
// and returns the extended buffer. ASCII letters are lower-cased,
// combining marks (category Mn) are dropped, and unmapped runes append
// themselves lower-cased.
func AppendFoldRune(dst []byte, r rune) []byte {
	if uint32(r) < utf8.RuneSelf {
		if r >= 'A' && r <= 'Z' {
			r += 'a' - 'A'
		}
		return append(dst, byte(r))
	}
	if unicode.Is(unicode.Mn, r) {
		return dst
	}
	if rep, ok := foldTable[r]; ok {
		return append(dst, rep...)
	}
	return utf8.AppendRune(dst, unicode.ToLower(r))
}
