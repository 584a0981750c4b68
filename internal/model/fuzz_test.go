package model

import "testing"

// FuzzDecodeWork feeds arbitrary bytes to the work decoder: it must
// never panic, any successful decode must re-encode to something that
// decodes to an equal work, and ScanWork must accept exactly what
// DecodeWork accepts, reporting the same ID and length.
func FuzzDecodeWork(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{2, 0, 0, 0})
	f.Add(AppendWork(nil, &Work{
		ID: 7, Title: "Seed", Kind: KindArticle,
		Authors:  []Author{{Family: "F", Given: "G", Student: true}},
		Citation: Citation{Volume: 95, Page: 1365, Year: 1993},
		Subjects: []string{"Mining Law"},
	}))
	f.Fuzz(func(t *testing.T, p []byte) {
		w, n, err := DecodeWork(p)
		id, sn, serr := ScanWork(p)
		if (err == nil) != (serr == nil) {
			t.Fatalf("DecodeWork err %v, ScanWork err %v", err, serr)
		}
		if err != nil {
			return
		}
		if id != w.ID || sn != n {
			t.Fatalf("ScanWork = (%d, %d), DecodeWork = (%d, %d)", id, sn, w.ID, n)
		}
		if n > len(p) {
			t.Fatalf("consumed %d of %d bytes", n, len(p))
		}
		re := AppendWork(nil, w)
		w2, m, err := DecodeWork(re)
		if err != nil || m != len(re) || !w2.Equal(w) {
			t.Fatalf("re-encode not stable: %v (m=%d len=%d)", err, m, len(re))
		}
	})
}
