package sim

// FIFO is a slice-backed first-in-first-out queue: the shape of every
// hot-path queue in the simulator (a core's work queues, a backlog's
// entries, a link's frames in flight). Popping advances a head index
// and a fully drained queue rewinds to the front of its array, so a
// steady drain-refill cycle never allocates. A queue that never drains
// drops its dead prefix whenever the array fills: in place when the
// live elements take at most half of it, else into a new array twice
// their number. The array therefore stays within twice the queue's
// peak depth however long the queue runs. The zero value is an empty
// queue.
type FIFO[T any] struct {
	items []T // items[head:] are queued, oldest first
	head  int
}

// fifoMinCap is the smallest array a FIFO allocates.
const fifoMinCap = 8

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return len(q.items) - q.head }

// Cap returns the capacity of the backing array.
func (q *FIFO[T]) Cap() int { return cap(q.items) }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if len(q.items) == cap(q.items) {
		q.makeRoom()
	}
	q.items = append(q.items, v)
}

// Pop removes and returns the head. It panics on an empty queue.
func (q *FIFO[T]) Pop() T {
	var zero T
	v := q.items[q.head]
	q.items[q.head] = zero // release references held by the slot
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v
}

// makeRoom runs when the backing array is full and drops the dead
// prefix: live elements that fill at most half the array move to its
// front, more move to a new array twice their number. It is kept out
// of line: inlined, it makes every Push on the hot path slower.
//
//go:noinline
func (q *FIFO[T]) makeRoom() {
	live := len(q.items) - q.head
	if q.head > 0 && 2*live <= cap(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
	} else {
		items := make([]T, live, max(2*live, fifoMinCap))
		copy(items, q.items[q.head:])
		q.items = items
	}
	q.head = 0
}
