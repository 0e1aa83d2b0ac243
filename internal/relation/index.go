package relation

// KeyIndex is a hash index mapping key-column values to row positions of a
// relation's boxed rows. The scalar evaluator indexes X on its link columns
// with one, so a detail row finds its groups in O(1).
//
// Keys are 64-bit hashes of the canonical key encoding with collision
// buckets: a probe hashes its key columns (no allocation), and candidate rows
// in the bucket are verified against the indexed rows' own key columns, so
// hash collisions cannot produce wrong matches.
type KeyIndex struct {
	rows    []Tuple
	keyCols []int
	buckets map[uint64][]int // key hash → candidate row positions, insert order
}

// BuildKeyIndex indexes rows on the key columns keyCols. The index holds a
// reference to rows.
func BuildKeyIndex(rows []Tuple, keyCols []int) *KeyIndex {
	ki := &KeyIndex{rows: rows, keyCols: keyCols, buckets: make(map[uint64][]int, len(rows))}
	for i, t := range rows {
		h := t.KeyHash(keyCols)
		ki.buckets[h] = append(ki.buckets[h], i)
	}
	return ki
}

// Lookup returns the row positions whose key columns equal those of probe,
// where probeCols gives the positions of the key attributes within probe.
// In the common (collision-free) case no allocation is performed.
func (ki *KeyIndex) Lookup(probe Tuple, probeCols []int) []int {
	bucket := ki.buckets[probe.KeyHash(probeCols)]
	for n, row := range bucket {
		if !keyColsEqual(ki.rows[row], ki.keyCols, probe, probeCols) {
			// Rare: a hash collision mixed a foreign key into the bucket.
			// Fall back to filtering into a fresh slice.
			out := append([]int{}, bucket[:n]...)
			for _, r := range bucket[n+1:] {
				if keyColsEqual(ki.rows[r], ki.keyCols, probe, probeCols) {
					out = append(out, r)
				}
			}
			if len(out) == 0 {
				return nil
			}
			return out
		}
	}
	return bucket
}

// KeyTable is an open-addressed hash table of row ids, linear probing, at
// most half full. Callers hash a row's key cells and say how to compare a
// candidate's, so the table holds neither keys nor rows: a slot is 32 bits of
// the hash, which also place it, and the row. It finds the one row a key
// names — the coordinator's merger, the scalar base scan and EqualMultiset
// keep each key once.
type KeyTable struct {
	slots []keySlot
	n     int
}

type keySlot struct {
	tag uint32 // the hash's low 32 bits
	row int32  // row id + 1; 0 marks an empty slot
}

// NewKeyTable returns a table sized for about hint rows.
func NewKeyTable(hint int) *KeyTable {
	t := new(KeyTable)
	t.Reset(hint)
	return t
}

// Reset empties t and sizes it for about hint rows. It keeps its slots when
// they are enough and not many times more than enough, so a table reused
// across merges stops allocating once it has grown to their size.
func (t *KeyTable) Reset(hint int) {
	size := 16
	for size < 2*hint {
		size <<= 1
	}
	if len(t.slots) < size || len(t.slots) > 8*size {
		t.slots = make([]keySlot, size)
	} else {
		clear(t.slots)
	}
	t.n = 0
}

// Find returns the row under hash that same accepts, or -1.
func (t *KeyTable) Find(hash uint64, same func(row int) bool) int {
	tag, mask := uint32(hash), uint32(len(t.slots)-1)
	for i := tag & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s.row == 0 {
			return -1
		}
		if s.tag == tag && same(int(s.row-1)) {
			return int(s.row - 1)
		}
	}
}

// Insert adds row under hash; Find has found no row with its key.
func (t *KeyTable) Insert(hash uint64, row int) {
	if 2*(t.n+1) > len(t.slots) {
		old := t.slots
		t.slots = make([]keySlot, 2*len(old))
		for _, s := range old {
			if s.row != 0 {
				t.place(s)
			}
		}
	}
	t.place(keySlot{tag: uint32(hash), row: int32(row + 1)})
	t.n++
}

func (t *KeyTable) place(s keySlot) {
	mask := uint32(len(t.slots) - 1)
	i := s.tag & mask
	for t.slots[i].row != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

// identityCols returns [0, 1, ..., n-1] from a small static table, avoiding
// per-probe allocation for the common low arities.
func identityCols(n int) []int {
	if n <= len(identityTable) {
		return identityTable[:n]
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

var identityTable = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31}
