package sim

import (
	"slices"
	"testing"
)

// TestStack pushes across several chunks, pops back into the middle of
// one and pushes again: pops return the values last in first out, and
// appendTo returns what is left oldest first.
func TestStack(t *testing.T) {
	var s stack[int]
	if got := s.appendTo(nil); got != nil {
		t.Fatalf("an empty stack appends %v, want nil", got)
	}
	var want []int
	for i := range 3*stackChunk + 7 {
		s.push(i)
		want = append(want, i)
	}
	for range stackChunk + 9 {
		if v := s.pop(); v != want[len(want)-1] {
			t.Fatalf("pop %d, want %d", v, want[len(want)-1])
		}
		want = want[:len(want)-1]
	}
	for i := range 5 {
		s.push(-i)
		want = append(want, -i)
	}
	if got := s.appendTo([]int{42}); !slices.Equal(got, append([]int{42}, want...)) {
		t.Fatalf("appendTo gives %d values, want %d", len(got), len(want)+1)
	}
}
