package stats

import "slices"

// Seq is a sequence kept in chunks of seqChunk values. It serves as a
// FIFO (PushBack, Front, PopFront), a LIFO (PushBack, PopBack) and an
// append-only record (PushBack, AppendTo). It grows to its peak length
// without copying a value, where append copies the whole slice each
// time it outgrows its capacity, and PopFront keeps the chunk it drains
// for the next chunk PushBack needs, so a FIFO in steady state
// allocates nothing. The zero value is an empty sequence.
type Seq[T any] struct {
	chunks [][]T
	head   int // position of the front in chunks[0]
	n      int
	spare  []T // a drained front chunk, reused before allocating
}

// seqChunk is the length of a chunk. A chunk of pointers is then 2 KB,
// and a drained FIFO, such as an idle GMU queue, keeps at most two.
const seqChunk = 256

// Len reports the number of values.
func (s *Seq[T]) Len() int { return s.n }

// At returns the value i places behind the front.
func (s *Seq[T]) At(i int) T {
	i += s.head
	return s.chunks[i/seqChunk][i%seqChunk]
}

// Front returns the oldest value, or the zero value when s is empty.
func (s *Seq[T]) Front() (v T) {
	if s.n > 0 {
		v = s.chunks[0][s.head]
	}
	return v
}

// PushBack appends v.
func (s *Seq[T]) PushBack(v T) {
	i := s.head + s.n
	if i == len(s.chunks)*seqChunk {
		c := s.spare
		if c == nil {
			c = make([]T, seqChunk)
		}
		s.chunks, s.spare = append(s.chunks, c), nil
	}
	s.chunks[i/seqChunk][i%seqChunk] = v
	s.n++
}

// PopBack removes and returns the newest value; s must not be empty.
func (s *Seq[T]) PopBack() T {
	s.n--
	return s.take(s.head + s.n)
}

// PopFront removes and returns the oldest value; s must not be empty.
func (s *Seq[T]) PopFront() T {
	v := s.take(s.head)
	s.head++
	s.n--
	switch {
	case s.n == 0:
		s.head = 0
	case s.head == seqChunk:
		s.spare = s.chunks[0]
		n := copy(s.chunks, s.chunks[1:])
		s.chunks[n] = nil
		s.chunks, s.head = s.chunks[:n], 0
	}
	return v
}

// take clears position i, so a popped pointer is not kept alive, and
// returns the value it held.
func (s *Seq[T]) take(i int) T {
	c := s.chunks[i/seqChunk]
	v := c[i%seqChunk]
	var zero T
	c[i%seqChunk] = zero
	return v
}

// AppendTo appends the values to dst, oldest first. An empty s returns
// dst unchanged, so a nil dst stays nil.
func (s *Seq[T]) AppendTo(dst []T) []T {
	dst = slices.Grow(dst, s.n)
	for ci, from, rest := 0, s.head, s.n; rest > 0; ci, from = ci+1, 0 {
		c := s.chunks[ci][from:min(seqChunk, from+rest)]
		dst = append(dst, c...)
		rest -= len(c)
	}
	return dst
}

// Reset empties s and drops its chunks.
func (s *Seq[T]) Reset() { *s = Seq[T]{} }
