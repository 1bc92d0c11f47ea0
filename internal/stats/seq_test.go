package stats

import (
	"slices"
	"testing"
)

// TestSeq drives a Seq as each of its users does: a LIFO free list, a
// FIFO work queue and an append-only record.
func TestSeq(t *testing.T) {
	// Pushes across several chunks, pops back into the middle of one
	// and pushes again: pops return the values last in first out, and
	// AppendTo returns what is left oldest first.
	t.Run("LIFO across chunks", func(t *testing.T) {
		var s Seq[int]
		if got := s.AppendTo(nil); got != nil {
			t.Fatalf("an empty sequence appends %v, want nil", got)
		}
		var want []int
		for i := range 3*seqChunk + 7 {
			s.PushBack(i)
			want = append(want, i)
		}
		for range seqChunk + 9 {
			if v := s.PopBack(); v != want[len(want)-1] {
				t.Fatalf("PopBack %d, want %d", v, want[len(want)-1])
			}
			want = want[:len(want)-1]
		}
		for i := range 5 {
			s.PushBack(-i)
			want = append(want, -i)
		}
		if got := s.AppendTo([]int{42}); !slices.Equal(got, append([]int{42}, want...)) {
			t.Fatalf("AppendTo gives %d values, want %d", len(got), len(want)+1)
		}
	})

	// Streams values through a FIFO that holds at most seqChunk+1 of
	// them: they leave in arrival order, and once the sequence has its
	// chunks it allocates no more.
	t.Run("FIFO reuses chunks", func(t *testing.T) {
		var s Seq[*int]
		vs := make([]int, 20*seqChunk)
		popped := 0
		pop := func() {
			if s.Front() != &vs[popped] {
				t.Fatalf("front is not value %d", popped)
			}
			if s.PopFront() != &vs[popped] {
				t.Fatalf("PopFront is not value %d", popped)
			}
			popped++
		}
		stream := func(from, to int) {
			for i := from; i < to; i++ {
				s.PushBack(&vs[i])
				if s.Len() > seqChunk {
					pop()
				}
			}
		}
		stream(0, 4*seqChunk)
		next := 4 * seqChunk
		// AllocsPerRun calls the function once more than asked.
		allocs := testing.AllocsPerRun(3, func() {
			stream(next, next+4*seqChunk)
			next += 4 * seqChunk
		})
		if allocs != 0 {
			t.Fatalf("a FIFO in steady state made %.0f allocations", allocs)
		}
		for s.Len() > 0 {
			pop()
		}
		if popped != len(vs) || s.Front() != nil {
			t.Fatalf("popped %d of %d values, front %v", popped, len(vs), s.Front())
		}
	})

	// Reads every position across chunk boundaries after pops emptied
	// the first chunk; AppendTo starts at the front.
	t.Run("FIFO At after pops", func(t *testing.T) {
		var s Seq[int]
		const n, popped = 3 * seqChunk, seqChunk + 5
		for i := range n {
			s.PushBack(i)
		}
		for range popped {
			s.PopFront()
		}
		if s.Len() != n-popped {
			t.Fatalf("Len %d, want %d", s.Len(), n-popped)
		}
		for pos := range s.Len() {
			if s.At(pos) != popped+pos {
				t.Fatalf("position %d holds %d, want %d", pos, s.At(pos), popped+pos)
			}
		}
		var want []int
		for i := popped; i < n; i++ {
			want = append(want, i)
		}
		if got := s.AppendTo(nil); !slices.Equal(got, want) {
			t.Fatalf("AppendTo gives %d values, want %d from %d", len(got), len(want), popped)
		}
		s.Reset()
		if s.Len() != 0 || s.AppendTo(nil) != nil {
			t.Fatalf("Reset left %d values", s.Len())
		}
	})
}
