package relation

import "fmt"

// KeyIndex is a hash index mapping key-column values to row positions of a
// relation. The Skalla coordinator keeps one over the base-result structure
// X, keyed on the base key attributes K, while it merges locally evaluated
// fragments — whose keys it has not seen before — so that synchronization
// runs in O(|H|) (Theorem 1 discussion in the paper); operator rounds address
// X by row ordinal instead and need none. The scalar evaluator indexes X on
// its link columns the same way.
//
// Keys are 64-bit hashes of the canonical key encoding with collision
// buckets: a probe hashes its key columns (no allocation), and candidate rows
// in the bucket are verified against the indexed relation's own key columns,
// so hash collisions cannot produce wrong matches.
type KeyIndex struct {
	rel     *Relation
	keyCols []int
	buckets map[uint64][]int // key hash → candidate row positions, insert order
	keys    int              // number of distinct keys
}

// BuildKeyIndex indexes r on the named key columns. The index holds a
// reference to r: rows appended to r afterwards are visible once registered
// with Add.
func BuildKeyIndex(r *Relation, keyNames []string) (*KeyIndex, error) {
	idx, err := r.Schema.Indexes(keyNames)
	if err != nil {
		return nil, err
	}
	return BuildKeyIndexCols(r, idx), nil
}

// BuildKeyIndexCols indexes r on the given key column positions.
func BuildKeyIndexCols(r *Relation, keyCols []int) *KeyIndex {
	ki := &KeyIndex{rel: r, keyCols: keyCols, buckets: make(map[uint64][]int, len(r.Tuples))}
	for i, t := range r.Tuples {
		ki.add(t, i)
	}
	return ki
}

// KeyCols returns the indexed column positions.
func (ki *KeyIndex) KeyCols() []int { return ki.keyCols }

// Lookup returns the row positions whose key columns equal those of probe,
// where probeCols gives the positions of the key attributes within probe.
// In the common (collision-free) case no allocation is performed.
func (ki *KeyIndex) Lookup(probe Tuple, probeCols []int) []int {
	bucket := ki.buckets[probe.KeyHash(probeCols)]
	for n, row := range bucket {
		if !keyColsEqual(ki.rel.Tuples[row], ki.keyCols, probe, probeCols) {
			// Rare: a hash collision mixed a foreign key into the bucket.
			// Fall back to filtering into a fresh slice.
			out := append([]int{}, bucket[:n]...)
			for _, r := range bucket[n+1:] {
				if keyColsEqual(ki.rel.Tuples[r], ki.keyCols, probe, probeCols) {
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

// Add registers a new row position under the key of tuple t (taken from the
// indexed relation's own key columns).
func (ki *KeyIndex) Add(t Tuple, row int) { ki.add(t, row) }

func (ki *KeyIndex) add(t Tuple, row int) {
	h := t.KeyHash(ki.keyCols)
	bucket := ki.buckets[h]
	fresh := true
	for _, r := range bucket {
		if keyColsEqual(ki.rel.Tuples[r], ki.keyCols, t, ki.keyCols) {
			fresh = false
			break
		}
	}
	if fresh {
		ki.keys++
	}
	ki.buckets[h] = append(bucket, row)
}

// Unique returns the single row for the key of probe. It returns an error if
// zero or multiple rows match; used where keys are known to be unique.
func (ki *KeyIndex) Unique(probe Tuple, probeCols []int) (int, error) {
	rows := ki.Lookup(probe, probeCols)
	switch len(rows) {
	case 1:
		return rows[0], nil
	case 0:
		return -1, fmt.Errorf("keyindex: no row for key")
	default:
		return -1, fmt.Errorf("keyindex: %d rows for key, want 1", len(rows))
	}
}

// Len returns the number of distinct keys.
func (ki *KeyIndex) Len() int { return ki.keys }

// KeySet is a hash set of grouping keys with collision buckets. Each distinct
// key is interned once as its projected tuple; probing allocates nothing.
type KeySet struct {
	buckets map[uint64][]Tuple
	keys    int
}

// NewKeySet creates a key set sized for about hint keys.
func NewKeySet(hint int) *KeySet {
	return &KeySet{buckets: make(map[uint64][]Tuple, hint)}
}

// Add inserts the key of t over the idx columns. It returns the interned key
// projection and whether the key was newly added; for an existing key the
// previously interned tuple is returned. Callers may append the interned
// tuple to an output relation but must not mutate it.
func (s *KeySet) Add(t Tuple, idx []int) (Tuple, bool) {
	h := t.KeyHash(idx)
	bucket := s.buckets[h]
	for _, k := range bucket {
		if keyColsEqual(k, identityCols(len(k)), t, idx) {
			return k, false
		}
	}
	key := make(Tuple, len(idx))
	for i, j := range idx {
		key[i] = t[j]
	}
	s.buckets[h] = append(bucket, key)
	s.keys++
	return key, true
}

// Contains reports whether the key of t over the idx columns is in the set.
func (s *KeySet) Contains(t Tuple, idx []int) bool {
	for _, k := range s.buckets[t.KeyHash(idx)] {
		if keyColsEqual(k, identityCols(len(k)), t, idx) {
			return true
		}
	}
	return false
}

// Len returns the number of distinct keys.
func (s *KeySet) Len() int { return s.keys }

// KeyCounter is a hash multiset counter over grouping keys, used for
// order-independent multiset comparison.
type KeyCounter struct {
	buckets map[uint64][]keyCount
}

type keyCount struct {
	key Tuple
	n   int
}

// NewKeyCounter creates a counter sized for about hint keys.
func NewKeyCounter(hint int) *KeyCounter {
	return &KeyCounter{buckets: make(map[uint64][]keyCount, hint)}
}

// Inc increments the count of t's key over idx and returns the new count.
func (c *KeyCounter) Inc(t Tuple, idx []int) int {
	h := t.KeyHash(idx)
	bucket := c.buckets[h]
	for i := range bucket {
		if keyColsEqual(bucket[i].key, identityCols(len(bucket[i].key)), t, idx) {
			bucket[i].n++
			return bucket[i].n
		}
	}
	key := make(Tuple, len(idx))
	for i, j := range idx {
		key[i] = t[j]
	}
	c.buckets[h] = append(bucket, keyCount{key: key, n: 1})
	return 1
}

// Dec decrements the count of t's key over idx and returns the new count;
// a key never incremented yields -1.
func (c *KeyCounter) Dec(t Tuple, idx []int) int {
	bucket := c.buckets[t.KeyHash(idx)]
	for i := range bucket {
		if keyColsEqual(bucket[i].key, identityCols(len(bucket[i].key)), t, idx) {
			bucket[i].n--
			return bucket[i].n
		}
	}
	return -1
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
