package relation

import (
	"sync"
	"unsafe"
)

// Slabs is memory lent to the decodes of one exchange. A frame decoded into
// it (Decoder.Decode, Cursor.Relation) takes its vectors, and their Ints,
// Floats, Codes, Dict and Nulls, from slabs kept across Resets instead of
// from the heap, and decodes exactly what a heap decode gives. What is
// decoded into s is valid until s.Reset, which its owner calls at one point,
// once nothing decoded is read any more. A nil *Slabs is the heap. STRING
// bytes always are the heap's: the values are substrings of one immutable
// string, which may outlive the slabs, as a merged X's dictionary does.
type Slabs struct {
	vecs   slab[Vector]
	ints   slab[int64]
	floats slab[float64]
	codes  slab[uint32]
	dict   slab[string]
	nulls  slab[uint64]
}

// slab is one kind's buffer, how much of it is handed out, and how much was
// asked for since the last reset, handed out of the buffer or not.
type slab[T any] struct {
	buf  []T
	used int
	want int
}

// take returns n zeroed elements, out of sl's buffer when they fit, capped
// at n so that an append to them reallocates instead of writing the next
// taker's. When they do not fit they come from the heap, and the next reset
// grows the buffer: a decode allocates no more than a heap decode of the
// same frame, however large the slabs already are.
func take[T any](sl *slab[T], n int) []T {
	sl.want += n
	if sl.used+n > len(sl.buf) || sl.buf == nil {
		return make([]T, n) // not nil, as a heap decode's are not
	}
	b := sl.buf[sl.used : sl.used+n : sl.used+n]
	sl.used += n
	clear(b)
	return b
}

// kept is the length of sl's buffer once reset: grown, when more was asked
// for than it holds, to that and a quarter more, so that a slightly larger
// exchange fits too.
func (sl *slab[T]) kept() int {
	if sl.want > len(sl.buf) {
		return sl.want + sl.want/4
	}
	return len(sl.buf)
}

// size is the bytes of sl's buffer once reset.
func (sl *slab[T]) size() int {
	var zero T
	return int(unsafe.Sizeof(zero)) * sl.kept()
}

// reset takes back what sl handed out, growing its buffer to kept.
func (sl *slab[T]) reset() {
	if n := sl.kept(); n != len(sl.buf) {
		sl.buf = make([]T, n)
	}
	sl.used, sl.want = 0, 0
}

// lent is the bytes asked of sl since the last reset.
func (sl *slab[T]) lent() int {
	var zero T
	return int(unsafe.Sizeof(zero)) * sl.want
}

// The n-element slices a decode builds, from s, or from the heap when s is
// nil.

func (s *Slabs) vectors(n int) []Vector {
	if s == nil {
		return make([]Vector, n)
	}
	return take(&s.vecs, n)
}

func (s *Slabs) int64s(n int) []int64 {
	if s == nil {
		return make([]int64, n)
	}
	return take(&s.ints, n)
}

func (s *Slabs) float64s(n int) []float64 {
	if s == nil {
		return make([]float64, n)
	}
	return take(&s.floats, n)
}

func (s *Slabs) uint32s(n int) []uint32 {
	if s == nil {
		return make([]uint32, n)
	}
	return take(&s.codes, n)
}

func (s *Slabs) strings(n int) []string {
	if s == nil {
		return make([]string, n)
	}
	return take(&s.dict, n)
}

func (s *Slabs) bitmap(n int) []uint64 {
	if s == nil {
		return make([]uint64, n)
	}
	return take(&s.nulls, n)
}

// maxSlabs is the most bytes a Slabs keeps across a Reset: one that a huge
// exchange would grow past it drops its buffers instead, as KeepBody drops a
// huge frame buffer.
const maxSlabs = 4 * trustedBody

// Reset takes back everything decoded into s. The vectors and dictionaries
// handed out of its buffers are cleared, so a header still held reads no
// rows and the slabs keep no string alive. The buffers are kept for the next
// decodes, each grown to what this exchange asked of it when that was more,
// unless that makes them hold more than maxSlabs. Resetting the heap (nil)
// does nothing.
func (s *Slabs) Reset() {
	if s == nil {
		return
	}
	clear(s.vecs.buf[:s.vecs.used])
	clear(s.dict.buf[:s.dict.used])
	if s.size() > maxSlabs {
		*s = Slabs{}
		return
	}
	s.vecs.reset()
	s.ints.reset()
	s.floats.reset()
	s.codes.reset()
	s.dict.reset()
	s.nulls.reset()
}

// size is the bytes s's buffers hold once it is reset.
func (s *Slabs) size() int {
	return s.vecs.size() + s.ints.size() + s.floats.size() + s.codes.size() + s.dict.size() + s.nulls.size()
}

// Lent is the bytes of the vectors decoded into s since the last Reset.
func (s *Slabs) Lent() int {
	return s.vecs.lent() + s.ints.lent() + s.floats.lent() + s.codes.lent() + s.dict.lent() + s.nulls.lent()
}

// FreeList keeps idle values for their next user: at most maxIdle of them,
// the rest left to the garbage collector. Unlike a sync.Pool it is shared
// by every P and is not emptied by a collection, so a warm value stays warm
// whichever goroutine asks next. New makes a value when none is idle (nil:
// new(T)).
type FreeList[T any] struct {
	New  func() *T
	mu   sync.Mutex
	idle []*T
}

// maxIdle bounds how many values a FreeList keeps.
const maxIdle = 8

// Get returns an idle value, the one put back last, or a new one.
func (l *FreeList[T]) Get() *T {
	l.mu.Lock()
	if n := len(l.idle); n > 0 {
		x := l.idle[n-1]
		l.idle[n-1] = nil
		l.idle = l.idle[:n-1]
		l.mu.Unlock()
		return x
	}
	l.mu.Unlock()
	if l.New != nil {
		return l.New()
	}
	return new(T)
}

// Put hands x back for the next Get, which may run at once: its user is done
// with it and with everything it lent.
func (l *FreeList[T]) Put(x *T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.idle) < maxIdle {
		l.idle = append(l.idle, x)
	}
}
