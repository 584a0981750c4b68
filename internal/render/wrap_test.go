package render

import (
	"slices"
	"strings"
	"testing"
)

// refWrap is the quadratic wrap the linear one replaced: it splits with
// strings.Fields, grows each line by concatenation and converts every
// word to []rune to measure it.
func refWrap(s string, width int) []string {
	if width < 1 {
		width = 1
	}
	words := strings.Fields(s)
	if len(words) == 0 {
		return []string{""}
	}
	var lines []string
	cur := ""
	flush := func() {
		if cur != "" {
			lines = append(lines, cur)
			cur = ""
		}
	}
	for _, word := range words {
		for len([]rune(word)) > width {
			flush()
			r := []rune(word)
			lines = append(lines, string(r[:width]))
			word = string(r[width:])
		}
		switch {
		case cur == "":
			cur = word
		case len([]rune(cur))+1+len([]rune(word)) <= width:
			cur += " " + word
		default:
			flush()
			cur = word
		}
	}
	flush()
	return lines
}

// wrapSeeds are inputs whose gaps and words take each path through
// wrap: single spaces, tabs and runs, U+0085/U+00A0/U+2003 gaps,
// multi-byte runes, words longer than the width, invalid bytes inside
// broken and unbroken words, blank input, and each of these where ASCII
// meets non-ASCII.
var wrapSeeds = []string{
	"",
	"   ",
	"\t\n\v\f\r \u0085  ",
	"short",
	"two words",
	"a b c d e f g h",
	"  leading and trailing  ",
	"tab\tseparated\twords here",
	"runs  of   spaces    between",
	"next\u0085line no break em space",
	"日本の法と社会 における 知的財産権",
	"superlonghyphenlessword and more",
	"abc\xfedefghijklmnopqrstuvwxyz tail",
	"\xff \xfe\xfd short\xc3 invalid\xe2\x82 bytes",
	"🎉🎉🎉🎉🎉🎉🎉🎉🎉🎉🎉 🎉",
	"Wolfeschlegelsteinhausenbergerdorff and the rest",
	// The ASCII/non-ASCII boundary of the word scanner: Unicode spaces
	// directly between ASCII words, an invalid byte right after ASCII
	// letters in a word long enough to break (below width 13) and in
	// one that never breaks, and words ending in a multi-byte rune at
	// exactly the width (6, 7 and 8).
	"ab\u0085cd\u00a0ef\u0085\u00a0gh",
	"abcdefghijkl\xff ok\xff xy",
	"abcdeé abcdefé\u00a0abcdefg€",
}

func TestWrapMatchesReference(t *testing.T) {
	for _, s := range wrapSeeds {
		for width := -1; width <= 40; width++ {
			if got, want := wrap(s, width), refWrap(s, width); !slices.Equal(got, want) {
				t.Errorf("wrap(%q, %d) = %q, want %q", s, width, got, want)
			}
		}
	}
}

func FuzzWrap(f *testing.F) {
	for _, s := range wrapSeeds {
		for _, width := range []int{1, 2, 3, 8, 24, 59} {
			f.Add(s, width)
		}
	}
	f.Fuzz(func(t *testing.T, s string, width int) {
		// The reference is quadratic in a word's length: cap the input
		// so that one call stays in milliseconds.
		s = s[:min(len(s), 4096)]
		width = 1 + (width%200+200)%200
		want := refWrap(s, width)
		if got := wrap(s, width); !slices.Equal(got, want) {
			t.Fatalf("wrap(%q, %d) = %q, want %q", s, width, got, want)
		}
		// Appending keeps what the slice held.
		if got := appendWrap([]string{"kept"}, s, width); got[0] != "kept" || !slices.Equal(got[1:], want) {
			t.Fatalf("appendWrap(kept, %q, %d) = %q, want kept then %q", s, width, got, want)
		}
	})
}

func TestWrapSingleSpacedAllocatesNothing(t *testing.T) {
	// Lines of single-spaced words are substrings of the input, so
	// wrapping into a reused slice allocates nothing.
	const title = "The Economic Analysis of Mining Law in the Western States: A Survey of Appropriation Doctrine"
	lines := appendWrap(nil, title, 24)
	allocs := testing.AllocsPerRun(100, func() {
		lines = appendWrap(lines[:0], title, 24)
	})
	if allocs != 0 {
		t.Errorf("wrapping a single-spaced title: %v allocations, want 0", allocs)
	}
}
