package ingest

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/collate"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/render"
)

const sampleTSV = `Abdalla, Tarek F.*	Allegheny-Pittsburgh Coal Co.	case-note	91:973 (1989)
Adler, Mortimer J.	Ideas of Relevance to Law	article	84:1 (1981)
Lewin, Jeff L.	Unlocking the Fire	article	94:563 (1992)
Peng, Syd S.	Unlocking the Fire	article	94:563 (1992)
Tol, Joan E.	Van Tol, Joan E.	see-also	
`

func TestTSVBasic(t *testing.T) {
	res, err := TSV(strings.NewReader(sampleTSV), Options{})
	if err != nil {
		t.Fatalf("TSV: %v", err)
	}
	if len(res.Works) != 3 {
		t.Fatalf("works = %d, want 3 (merged)", len(res.Works))
	}
	if len(res.CrossRefs) != 1 {
		t.Fatalf("crossrefs = %d, want 1", len(res.CrossRefs))
	}
	// Multi-author merge.
	var unlocking *model.Work
	for _, w := range res.Works {
		if w.Title == "Unlocking the Fire" {
			unlocking = w
		}
	}
	if unlocking == nil || len(unlocking.Authors) != 2 {
		t.Fatalf("merge failed: %+v", unlocking)
	}
	// Student flag survives.
	if !res.Works[0].Authors[0].Student {
		t.Error("student flag lost")
	}
	// IDs assigned in order.
	for i, w := range res.Works {
		if w.ID != model.WorkID(i+1) {
			t.Errorf("work %d has ID %d", i, w.ID)
		}
		if err := w.Validate(); err != nil {
			t.Errorf("ingested work invalid: %v", err)
		}
	}
	if ref := res.CrossRefs[0]; ref.From.Family != "Tol" || ref.To.Particle != "Van" {
		t.Errorf("crossref = %+v", ref)
	}
}

func TestTSVCommentsAndBlanks(t *testing.T) {
	in := "# comment\n\n" + sampleTSV
	res, err := TSV(strings.NewReader(in), Options{})
	if err != nil || len(res.Works) != 3 {
		t.Errorf("comments/blanks broke parse: %v, %d works", err, len(res.Works))
	}
}

func TestTSVStrictErrors(t *testing.T) {
	bad := []string{
		"only two\tfields\n",
		"Auth, A.\tTitle\tarticle\tnot-a-cite\n",
		"Auth, A.\tTitle\tno-such-kind\t90:1 (1988)\n",
		"Auth, A.\t\tarticle\t90:1 (1988)\n",
		"\tTitle\tarticle\t90:1 (1988)\n",
		"Auth, A.\tTitle\tarticle\t0:1 (1988)\n", // fails citation Validate
	}
	for _, in := range bad {
		if _, err := TSV(strings.NewReader(in), Options{}); !errors.Is(err, ErrSyntax) {
			t.Errorf("strict parse of %q: err=%v, want ErrSyntax", in, err)
		}
	}
}

func TestTSVLenientSkips(t *testing.T) {
	in := sampleTSV + "garbage line without tabs\nAuth, A.\tTitle\tarticle\tbad\n"
	res, err := TSV(strings.NewReader(in), Options{Lenient: true})
	if err != nil {
		t.Fatalf("lenient parse: %v", err)
	}
	if res.Skipped != 2 {
		t.Errorf("Skipped = %d, want 2", res.Skipped)
	}
	if len(res.Works) != 3 {
		t.Errorf("works = %d, want 3", len(res.Works))
	}
}

func TestCSVRoundTrip(t *testing.T) {
	// Build an index, render CSV, ingest it back: same postings.
	works := gen.Generate(gen.Config{Seed: 21, Works: 120})
	ix, err := core.Rebuild(collate.Default(), works)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := render.Render(&buf, ix, render.Options{Format: render.CSV}); err != nil {
		t.Fatal(err)
	}
	res, err := CSV(bytes.NewReader(buf.Bytes()), Options{})
	if err != nil {
		t.Fatalf("CSV ingest: %v", err)
	}
	if res.Skipped != 0 {
		t.Errorf("skipped %d rows", res.Skipped)
	}
	ix2, err := core.Rebuild(collate.Default(), res.Works)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := ix.Stats(), ix2.Stats()
	if s1.Authors != s2.Authors || s1.Postings != s2.Postings || len(res.Works) != len(works) {
		t.Errorf("round trip stats: %+v vs %+v", s1, s2)
	}
}

func TestCSVHeaderValidation(t *testing.T) {
	if _, err := CSV(strings.NewReader("a,b,c\n"), Options{}); !errors.Is(err, ErrSyntax) {
		t.Errorf("bad header: %v", err)
	}
	if _, err := CSV(strings.NewReader(""), Options{}); !errors.Is(err, ErrSyntax) {
		t.Errorf("empty input: %v", err)
	}
}

// The TSV render → ingest → render loop must be a fixed point.
func TestTSVRenderIngestFixedPoint(t *testing.T) {
	works := gen.Generate(gen.Config{Seed: 22, Works: 200})
	ix, err := core.Rebuild(collate.Default(), works)
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := render.Render(&first, ix, render.Options{Format: render.TSV}); err != nil {
		t.Fatal(err)
	}
	res, err := TSV(bytes.NewReader(first.Bytes()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := core.Rebuild(collate.Default(), res.Works)
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := render.Render(&second, ix2, render.Options{Format: render.TSV}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("TSV render→ingest→render is not a fixed point")
		// Show the first divergence to ease debugging.
		a := strings.Split(first.String(), "\n")
		b := strings.Split(second.String(), "\n")
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				t.Logf("line %d:\n  first:  %q\n  second: %q", i+1, a[i], b[i])
				break
			}
		}
	}
}
