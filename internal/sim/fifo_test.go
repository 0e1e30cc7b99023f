package sim

import "testing"

// TestFIFOOrderAcrossWrapAndGrowth interleaves pushes and pops so the
// ring wraps many times and grows mid-wrap, and checks strict FIFO
// order throughout.
func TestFIFOOrderAcrossWrapAndGrowth(t *testing.T) {
	var q FIFO[int]
	next, want := 0, 0
	for round := 0; round < 200; round++ {
		// Push a few more than we pop, so depth ratchets up slowly and
		// growth happens while head sits mid-ring.
		for i := 0; i < 5+round%7; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < 4+round%5 && q.Len() > 0; i++ {
			if got := q.Pop(); got != want {
				t.Fatalf("round %d: popped %d, want %d", round, got, want)
			}
			want++
		}
	}
	for q.Len() > 0 {
		if got := q.Pop(); got != want {
			t.Fatalf("drain: popped %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d elements, pushed %d", want, next)
	}
}

// TestFIFOCapacityTracksDepth keeps a constant-depth queue flowing for
// far longer than its depth: the ring must not grow past twice the
// depth, and popped slots must not retain references.
func TestFIFOCapacityTracksDepth(t *testing.T) {
	var q FIFO[*int]
	const depth = 100
	for i := 0; i < depth; i++ {
		q.Push(new(int))
	}
	for i := 0; i < 100000; i++ {
		q.Pop()
		q.Push(new(int))
	}
	if q.Cap() > 2*depth {
		t.Fatalf("capacity %d for a steady depth of %d", q.Cap(), depth)
	}
	for q.Len() > 0 {
		q.Pop()
	}
	for i, p := range q.items[:cap(q.items)] {
		if p != nil {
			t.Fatalf("slot %d still references a popped element", i)
		}
	}
}
