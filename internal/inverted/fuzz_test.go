package inverted

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
)

// FuzzTokenize checks the tokenizer's invariants on arbitrary input: it
// never panics, every token is non-empty, lower-case alphanumeric and
// stopword-free, it is idempotent (tokenizing the joined tokens yields
// the same tokens), an index round-trip through Add/Remove leaves no
// residue, and AddBatch files the text as sequential Adds do.
func FuzzTokenize(f *testing.F) {
	for _, seed := range []string{
		"Surface Mining Control and Reclamation",
		"The Coalbed-Methane Question: Who Owns It?",
		"ÀÇÇÉÑTS and Ümläuts",
		"a an and of the", // all stopwords
		"  --  ",
		"",
		"\xff\xfe broken utf8",
		"numbers 123 mixed4alpha",
		"日本語のタイトル",
		strings.Repeat("long ", 50),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		toks := Tokenize(s)
		for _, tok := range toks {
			if tok == "" {
				t.Fatalf("Tokenize(%q) produced an empty token", s)
			}
			if stopwords[tok] {
				t.Fatalf("Tokenize(%q) kept stopword %q", s, tok)
			}
			for _, r := range tok {
				if !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9') {
					t.Fatalf("Tokenize(%q) produced non-folded token %q", s, tok)
				}
			}
		}
		again := Tokenize(strings.Join(toks, " "))
		if len(again) != len(toks) {
			t.Fatalf("Tokenize not idempotent on %q: %v vs %v", s, toks, again)
		}
		for i := range toks {
			if again[i] != toks[i] {
				t.Fatalf("Tokenize not idempotent on %q: %v vs %v", s, toks, again)
			}
		}
		// Add/Remove round trip leaves the index empty.
		ix := New(byID)
		ix.Add(1, s)
		if len(toks) == 0 && ix.Terms() != 0 {
			t.Fatalf("tokenless text %q still indexed %d terms", s, ix.Terms())
		}
		ix.Remove(1, s)
		if ix.Terms() != 0 || ix.Docs() != 0 {
			t.Fatalf("index not empty after Add/Remove of %q: %d terms, %d docs", s, ix.Terms(), ix.Docs())
		}
		// A batch files the text exactly as sequential Adds do.
		docs := []Doc[model.WorkID]{{Ref: 2, Text: s}, {Ref: 1, Text: s + " fuzz"}}
		seq, bat := New(byID), New(byID)
		for _, d := range docs {
			seq.Add(d.Ref, d.Text)
		}
		bat.AddBatch(docs)
		if seq.Docs() != bat.Docs() || seq.Terms() != bat.Terms() {
			t.Fatalf("AddBatch of %q: %d docs/%d terms, sequential %d/%d", s, bat.Docs(), bat.Terms(), seq.Docs(), seq.Terms())
		}
		for _, tok := range append(toks, "fuzz") {
			if b, q := bat.Postings(tok), seq.Postings(tok); !reflect.DeepEqual(b, q) {
				t.Fatalf("AddBatch of %q: Postings(%q) = %v, sequential %v", s, tok, b, q)
			}
		}
	})
}
