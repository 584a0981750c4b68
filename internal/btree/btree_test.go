package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func key(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }

func TestEmptyTree(t *testing.T) {
	tr := New[int]()
	if tr.Len() != 0 {
		t.Error("empty tree Len != 0")
	}
	if _, ok := tr.Get([]byte("x")); ok {
		t.Error("Get on empty tree found something")
	}
	if _, ok := tr.Delete([]byte("x")); ok {
		t.Error("Delete on empty tree found something")
	}
	if _, _, ok := tr.Min(); ok {
		t.Error("Min on empty tree")
	}
	if _, _, ok := tr.Max(); ok {
		t.Error("Max on empty tree")
	}
	n := 0
	tr.Ascend(func([]byte, int) bool { n++; return true })
	if n != 0 {
		t.Error("Ascend on empty tree visited entries")
	}
}

func TestSetGetDeleteSmall(t *testing.T) {
	tr := New[string]()
	if _, replaced := tr.Set([]byte("b"), "B"); replaced {
		t.Error("fresh Set reported replacement")
	}
	tr.Set([]byte("a"), "A")
	tr.Set([]byte("c"), "C")
	if v, ok := tr.Get([]byte("b")); !ok || v != "B" {
		t.Errorf("Get(b) = %q,%v", v, ok)
	}
	if prev, replaced := tr.Set([]byte("b"), "B2"); !replaced || prev != "B" {
		t.Errorf("replace returned %q,%v", prev, replaced)
	}
	if tr.Len() != 3 {
		t.Errorf("Len = %d, want 3", tr.Len())
	}
	if old, ok := tr.Delete([]byte("b")); !ok || old != "B2" {
		t.Errorf("Delete(b) = %q,%v", old, ok)
	}
	if _, ok := tr.Get([]byte("b")); ok {
		t.Error("deleted key still present")
	}
	if tr.Len() != 2 {
		t.Errorf("Len after delete = %d, want 2", tr.Len())
	}
}

func TestLargeSequentialAndSplits(t *testing.T) {
	tr := New[int]()
	const n = 10_000
	for i := 0; i < n; i++ {
		tr.Set(key(i), i)
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	h, leaves, inners := tr.stats()
	if h < 2 || leaves < n/maxKeys {
		t.Errorf("suspicious shape: height=%d leaves=%d inners=%d", h, leaves, inners)
	}
	for i := 0; i < n; i += 97 {
		if v, ok := tr.Get(key(i)); !ok || v != i {
			t.Fatalf("Get(%d) = %d,%v", i, v, ok)
		}
	}
	// Full ordered iteration.
	prev := -1
	count := 0
	tr.Ascend(func(k []byte, v int) bool {
		if v != prev+1 {
			t.Fatalf("iteration out of order: %d after %d", v, prev)
		}
		prev = v
		count++
		return true
	})
	if count != n {
		t.Errorf("Ascend visited %d, want %d", count, n)
	}
}

func TestDescendingInsertAndDeleteAll(t *testing.T) {
	tr := New[int]()
	const n = 5_000
	for i := n - 1; i >= 0; i-- {
		tr.Set(key(i), i)
	}
	// Delete every key in random order; tree must stay consistent.
	perm := rand.New(rand.NewSource(42)).Perm(n)
	for _, i := range perm {
		if _, ok := tr.Delete(key(i)); !ok {
			t.Fatalf("Delete(%d) missed", i)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len after full delete = %d", tr.Len())
	}
	if h, leaves, _ := tr.stats(); h != 1 || leaves != 1 {
		t.Errorf("tree did not collapse: height=%d leaves=%d", h, leaves)
	}
}

func TestAscendRange(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 100; i++ {
		tr.Set(key(i), i)
	}
	var got []int
	tr.AscendRange(key(10), key(20), func(k []byte, v int) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Errorf("range [10,20) = %v", got)
	}
	// Half-open semantics: hi excluded, lo included.
	got = got[:0]
	tr.AscendRange(nil, key(3), func(k []byte, v int) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 3 {
		t.Errorf("range [nil,3) = %v", got)
	}
	// Early stop.
	n := 0
	tr.AscendRange(nil, nil, func(k []byte, v int) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("early stop visited %d", n)
	}
	// Range starting between keys.
	got = got[:0]
	tr.AscendRange([]byte("key-000010x"), key(12), func(k []byte, v int) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 1 || got[0] != 11 {
		t.Errorf("between-keys range = %v, want [11]", got)
	}
}

func TestAscendPrefix(t *testing.T) {
	tr := New[string]()
	words := []string{"app", "apple", "applesauce", "apply", "banana", "ap"}
	for _, w := range words {
		tr.Set([]byte(w), w)
	}
	var got []string
	tr.AscendPrefix([]byte("appl"), func(k []byte, v string) bool {
		got = append(got, v)
		return true
	})
	want := []string{"apple", "applesauce", "apply"}
	if len(got) != len(want) {
		t.Fatalf("prefix scan = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("prefix scan = %v, want %v", got, want)
		}
	}
	// Empty prefix = full scan.
	n := 0
	tr.AscendPrefix(nil, func([]byte, string) bool { n++; return true })
	if n != len(words) {
		t.Errorf("empty prefix visited %d, want %d", n, len(words))
	}
}

func TestPrefixEndAllFF(t *testing.T) {
	if got := prefixEnd([]byte{0xff, 0xff}); got != nil {
		t.Errorf("prefixEnd(ff ff) = %x, want nil", got)
	}
	if got := prefixEnd([]byte{0x01, 0xff}); !bytes.Equal(got, []byte{0x02}) {
		t.Errorf("prefixEnd(01 ff) = %x, want 02", got)
	}
	// A key with the 0xff prefix must be reachable.
	tr := New[int]()
	tr.Set([]byte{0xff, 0xff, 0x01}, 1)
	n := 0
	tr.AscendPrefix([]byte{0xff, 0xff}, func([]byte, int) bool { n++; return true })
	if n != 1 {
		t.Errorf("0xff prefix scan visited %d, want 1", n)
	}
}

// TestSetKeepsKey: Set files the caller's slice itself, through leaf
// and interior splits, so several trees can share one key buffer; a
// replace keeps the slice filed first; and a COW clone sharing those
// slices is unaffected by mutation on either side.
func TestSetKeepsKey(t *testing.T) {
	tr := New[int]()
	keys := make(map[string][]byte)
	for _, i := range rand.New(rand.NewSource(3)).Perm(5000) {
		k := key(i)
		keys[string(k)] = k
		tr.Set(k, i)
	}
	if h, _, _ := tr.stats(); h < 3 {
		t.Fatalf("height %d: want interior splits", h)
	}
	same := func(a, b []byte) bool { return len(a) == len(b) && &a[0] == &b[0] }
	tr.Ascend(func(k []byte, _ int) bool {
		if !same(k, keys[string(k)]) {
			t.Fatalf("key %s is a copy, not the caller's slice", k)
		}
		return true
	})
	first := keys[string(key(42))]
	tr.Set(key(42), -42)
	if k, _, _ := tr.Min(); !same(k, keys[string(key(0))]) {
		t.Error("Min returned a copy of the filed key")
	}
	snap := tr.Clone()
	tr.AscendRange(key(42), key(43), func(k []byte, v int) bool {
		if !same(k, first) || v != -42 {
			t.Errorf("replace: key %s value %d, want the first slice and -42", k, v)
		}
		return true
	})
	// Mutate both sides of the clone: new keys, replaced values, deletes.
	for i := 0; i < 5000; i += 3 {
		tr.Delete(key(i))
		tr.Set(key(5000+i), i)
	}
	for i := 1; i < 5000; i += 7 {
		snap.Set(key(i), -i)
	}
	checkInvariants(t, tr)
	checkInvariants(t, snap)
	if snap.Len() != 5000 {
		t.Fatalf("clone Len = %d, want 5000", snap.Len())
	}
	i := 0
	snap.Ascend(func(k []byte, v int) bool {
		if !same(k, keys[string(k)]) {
			t.Fatalf("clone key %s is not the caller's slice", k)
		}
		want := i
		switch {
		case (i-1)%7 == 0:
			want = -i
		case i == 42:
			want = -42
		}
		if v != want {
			t.Fatalf("clone value for %s = %d, want %d", k, v, want)
		}
		i++
		return true
	})
	for i := 0; i < 5000; i++ {
		v, ok := tr.Get(key(i))
		if i%3 == 0 {
			if ok {
				t.Fatalf("deleted key %d still in the original", i)
			}
			if v, ok = tr.Get(key(5000 + i)); !ok || v != i {
				t.Fatalf("new key %d = %d,%v", 5000+i, v, ok)
			}
			continue
		}
		want := i
		if i == 42 {
			want = -42
		}
		if !ok || v != want {
			t.Fatalf("original key %d = %d,%v, want %d: the clone's Set leaked", i, v, ok, want)
		}
	}
}

func TestMinMax(t *testing.T) {
	tr := New[int]()
	for _, i := range rand.New(rand.NewSource(7)).Perm(1000) {
		tr.Set(key(i), i)
	}
	if k, v, ok := tr.Min(); !ok || v != 0 || !bytes.Equal(k, key(0)) {
		t.Errorf("Min = %s,%d,%v", k, v, ok)
	}
	if k, v, ok := tr.Max(); !ok || v != 999 || !bytes.Equal(k, key(999)) {
		t.Errorf("Max = %s,%d,%v", k, v, ok)
	}
}

// opSequence applies a deterministic random op stream to both the tree
// and a model, checking agreement after every op.
func runModelCheck(t *testing.T, seed int64, ops int, keySpace int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	tr := New[int]()
	model := map[string]int{}
	for op := 0; op < ops; op++ {
		k := key(r.Intn(keySpace))
		switch r.Intn(3) {
		case 0: // set
			v := r.Int()
			_, replacedT := tr.Set(k, v)
			_, replacedM := model[string(k)]
			if replacedT != replacedM {
				t.Fatalf("op %d: Set replaced=%v model=%v", op, replacedT, replacedM)
			}
			model[string(k)] = v
		case 1: // delete
			_, okT := tr.Delete(k)
			_, okM := model[string(k)]
			if okT != okM {
				t.Fatalf("op %d: Delete ok=%v model=%v", op, okT, okM)
			}
			delete(model, string(k))
		case 2: // get
			vT, okT := tr.Get(k)
			vM, okM := model[string(k)]
			if okT != okM || (okT && vT != vM) {
				t.Fatalf("op %d: Get %v,%v model %v,%v", op, vT, okT, vM, okM)
			}
		}
		if tr.Len() != len(model) {
			t.Fatalf("op %d: Len %d != model %d", op, tr.Len(), len(model))
		}
	}
	// Final: iteration order must equal sorted model keys.
	var wantKeys []string
	for k := range model {
		wantKeys = append(wantKeys, k)
	}
	sort.Strings(wantKeys)
	i := 0
	tr.Ascend(func(k []byte, v int) bool {
		if i >= len(wantKeys) || string(k) != wantKeys[i] || v != model[wantKeys[i]] {
			t.Fatalf("iteration diverges at %d: %s", i, k)
		}
		i++
		return true
	})
	if i != len(wantKeys) {
		t.Fatalf("iterated %d, model has %d", i, len(wantKeys))
	}
}

func TestModelCheckDense(t *testing.T)  { runModelCheck(t, 1, 30_000, 500) }
func TestModelCheckSparse(t *testing.T) { runModelCheck(t, 2, 30_000, 100_000) }
func TestModelCheckTiny(t *testing.T)   { runModelCheck(t, 3, 5_000, 8) }

func TestModelCheckQuick(t *testing.T) {
	f := func(seed int64) bool {
		runModelCheck(t, seed, 2_000, 64)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// The three OrderedMap implementations must agree everywhere.
func TestBaselinesAgree(t *testing.T) {
	impls := map[string]OrderedMap[int]{
		"tree":   New[int](),
		"sorted": NewSortedSlice[int](),
		"linear": NewLinearScan[int](),
	}
	r := rand.New(rand.NewSource(11))
	for op := 0; op < 5_000; op++ {
		k := key(r.Intn(300))
		switch r.Intn(3) {
		case 0:
			v := r.Int()
			for _, m := range impls {
				m.Set(k, v)
			}
		case 1:
			for _, m := range impls {
				m.Delete(k)
			}
		case 2:
			want, wantOK := impls["sorted"].Get(k)
			for name, m := range impls {
				got, ok := m.Get(k)
				if ok != wantOK || (ok && got != want) {
					t.Fatalf("op %d: %s.Get = %v,%v want %v,%v", op, name, got, ok, want, wantOK)
				}
			}
		}
	}
	// Identical range scans.
	lo, hi := key(50), key(250)
	collect := func(m OrderedMap[int]) []string {
		var out []string
		m.AscendRange(lo, hi, func(k []byte, v int) bool {
			out = append(out, fmt.Sprintf("%s=%d", k, v))
			return true
		})
		return out
	}
	want := collect(impls["sorted"])
	for name, m := range impls {
		got := collect(m)
		if len(got) != len(want) {
			t.Fatalf("%s range len %d, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s range[%d] = %s, want %s", name, i, got[i], want[i])
			}
		}
	}
}

func TestEmptyAndOddKeys(t *testing.T) {
	tr := New[string]()
	// The empty key is a legal key and sorts first.
	tr.Set([]byte{}, "empty")
	tr.Set([]byte{0}, "nul")
	tr.Set([]byte("a"), "a")
	if v, ok := tr.Get([]byte{}); !ok || v != "empty" {
		t.Errorf("empty key: %q,%v", v, ok)
	}
	var order []string
	tr.Ascend(func(k []byte, v string) bool {
		order = append(order, v)
		return true
	})
	if len(order) != 3 || order[0] != "empty" || order[1] != "nul" || order[2] != "a" {
		t.Errorf("order = %v", order)
	}
	if _, ok := tr.Delete([]byte{}); !ok {
		t.Error("empty key not deletable")
	}
}

func TestSortedSliceRangeFromMissingLo(t *testing.T) {
	s := NewSortedSlice[int]()
	for i := 0; i < 10; i += 2 {
		s.Set(key(i), i)
	}
	var got []int
	s.AscendRange(key(3), key(9), func(_ []byte, v int) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 3 || got[0] != 4 || got[2] != 8 {
		t.Errorf("range = %v", got)
	}
}

func TestLinearScanDeleteSwaps(t *testing.T) {
	s := NewLinearScan[int]()
	s.Set([]byte("a"), 1)
	s.Set([]byte("b"), 2)
	s.Set([]byte("c"), 3)
	if old, ok := s.Delete([]byte("a")); !ok || old != 1 {
		t.Fatalf("Delete(a) = %d,%v", old, ok)
	}
	if v, ok := s.Get([]byte("c")); !ok || v != 3 {
		t.Error("swap-delete lost another key")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
}
