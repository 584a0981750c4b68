package model

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Binary encoding of works, used by the storage layer for WAL records and
// snapshots. The format is versioned, length-prefixed and self-contained:
//
//	byte    version (currently 2)
//	uvarint ID
//	byte    kind
//	string  title
//	uvarint volume, page, year
//	uvarint author count, then per author:
//	        string family, given, particle, suffix; byte studentFlag
//	uvarint subject count, then that many strings   (version ≥ 2)
//
// where string is uvarint length followed by raw bytes. Version 1
// records (no subject section) are still decoded.

const encodeVersion = 2

// ErrBadEncoding is wrapped by all decode failures.
var ErrBadEncoding = errors.New("model: bad work encoding")

// AppendWork appends the binary encoding of w to dst and returns the
// extended slice.
func AppendWork(dst []byte, w *Work) []byte {
	dst = append(dst, encodeVersion)
	dst = binary.AppendUvarint(dst, uint64(w.ID))
	dst = append(dst, byte(w.Kind))
	dst = appendString(dst, w.Title)
	dst = binary.AppendUvarint(dst, uint64(w.Citation.Volume))
	dst = binary.AppendUvarint(dst, uint64(w.Citation.Page))
	dst = binary.AppendUvarint(dst, uint64(w.Citation.Year))
	dst = binary.AppendUvarint(dst, uint64(len(w.Authors)))
	for _, a := range w.Authors {
		dst = AppendAuthor(dst, a)
	}
	dst = binary.AppendUvarint(dst, uint64(len(w.Subjects)))
	for _, s := range w.Subjects {
		dst = appendString(dst, s)
	}
	return dst
}

// Interner deduplicates decoded strings across works, so a recovery
// pass over a whole corpus shares one allocation per distinct author
// name part or subject heading instead of one per occurrence. The zero
// value is not usable; call NewInterner. Not safe for concurrent use.
type Interner struct {
	m map[string]string
}

// NewInterner returns an empty interner.
func NewInterner() *Interner { return &Interner{m: make(map[string]string)} }

func (in *Interner) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := in.m[string(b)]; ok { // no-copy map probe
		return s
	}
	s := string(b)
	in.m[s] = s
	return s
}

// DecodeWork decodes one work from the front of p, returning the work and
// the number of bytes consumed.
func DecodeWork(p []byte) (*Work, int, error) {
	return DecodeWorkInterned(p, nil)
}

// DecodeWorkInterned is DecodeWork with repeated-string deduplication:
// author name parts and subject headings — the fields that recur across
// a corpus — are resolved through in, so bulk recovery allocates each
// distinct string once. A nil interner decodes like DecodeWork. Titles
// are never interned (they rarely repeat).
func DecodeWorkInterned(p []byte, in *Interner) (*Work, int, error) {
	w := new(Work)
	n, err := decodeWork(&decoder{p: p, in: in}, w)
	if err != nil {
		return nil, 0, err
	}
	return w, n, nil
}

// ScanWork reads the ID and byte length of the work encoding at the
// front of p, version 1 or 2, without allocating: storage uses it to
// copy snapshot records verbatim. It walks the record as DecodeWork
// does, so it accepts exactly the encodings DecodeWork accepts.
func ScanWork(p []byte) (WorkID, int, error) {
	var w Work
	n, err := decodeWork(&decoder{p: p, scan: true}, &w)
	if err != nil {
		return 0, 0, err
	}
	return w.ID, n, nil
}

// decodeWork fills w from the encoding at the front of d.p and returns
// its length. A scanning decoder reads every field but keeps only the
// scalars: strings come back empty and no slice is allocated.
func decodeWork(d *decoder, w *Work) (int, error) {
	version := d.byte()
	if d.err == nil && (version < 1 || version > encodeVersion) {
		return 0, fmt.Errorf("%w: version %d", ErrBadEncoding, version)
	}
	w.ID = WorkID(d.uvarint())
	w.Kind = Kind(d.byte())
	w.Title = d.string()
	w.Citation.Volume = int(d.uvarint())
	w.Citation.Page = int(d.uvarint())
	w.Citation.Year = int(d.uvarint())
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.p)) {
		// An author costs at least 5 bytes (four empty strings plus the
		// student flag), so more authors than remaining bytes is corrupt.
		d.err = fmt.Errorf("%w: author count %d exceeds input", ErrBadEncoding, n)
	}
	if d.err == nil && n > 0 && !d.scan {
		w.Authors = make([]Author, 0, n)
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		var a Author
		a.Family = d.internedString()
		a.Given = d.internedString()
		a.Particle = d.internedString()
		a.Suffix = d.internedString()
		a.Student = d.byte() != 0
		if !d.scan {
			w.Authors = append(w.Authors, a)
		}
	}
	if version >= 2 {
		m := d.uvarint()
		if d.err == nil && m > uint64(len(d.p)) {
			d.err = fmt.Errorf("%w: subject count %d exceeds input", ErrBadEncoding, m)
		}
		if d.err == nil && m > 0 && !d.scan {
			w.Subjects = make([]string, 0, m)
		}
		for i := uint64(0); i < m && d.err == nil; i++ {
			if s := d.internedString(); !d.scan {
				w.Subjects = append(w.Subjects, s)
			}
		}
	}
	if d.err != nil {
		return 0, d.err
	}
	return d.off, nil
}

// AppendAuthor appends the binary encoding of a single author (the same
// per-author layout AppendWork uses) to dst.
func AppendAuthor(dst []byte, a Author) []byte {
	dst = appendString(dst, a.Family)
	dst = appendString(dst, a.Given)
	dst = appendString(dst, a.Particle)
	dst = appendString(dst, a.Suffix)
	if a.Student {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// DecodeAuthor decodes one author from the front of p, returning the
// author and the number of bytes consumed.
func DecodeAuthor(p []byte) (Author, int, error) {
	d := decoder{p: p}
	var a Author
	a.Family = d.string()
	a.Given = d.string()
	a.Particle = d.string()
	a.Suffix = d.string()
	a.Student = d.byte() != 0
	if d.err != nil {
		return Author{}, 0, d.err
	}
	return a, d.off, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// decoder tracks position and the first error while pulling fields off a
// byte slice; once err is set every accessor returns a zero value.
type decoder struct {
	p    []byte
	off  int
	err  error
	in   *Interner // nil: no string deduplication
	scan bool      // skip strings: string() returns "" without allocating
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated %s at offset %d", ErrBadEncoding, what, d.off)
	}
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.p) {
		d.fail("byte")
		return 0
	}
	b := d.p[d.off]
	d.off++
	return b
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.p[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

// stringBytes decodes one length-prefixed string field and returns the
// raw bytes, still aliasing the input buffer; string() and
// internedString() differ only in how they materialize them.
func (d *decoder) stringBytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.p)-d.off) {
		d.fail("string")
		return nil
	}
	b := d.p[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

func (d *decoder) string() string {
	if b := d.stringBytes(); !d.scan {
		return string(b)
	}
	return ""
}

// internedString is string() resolved through the decoder's interner,
// when one is attached.
func (d *decoder) internedString() string {
	if d.in == nil {
		return d.string()
	}
	return d.in.intern(d.stringBytes())
}
