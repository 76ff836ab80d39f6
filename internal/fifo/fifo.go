// Package fifo provides the host model's reusable queues: Queue, the
// first-in first-out queue it uses wherever work waits its turn (the uchan
// upcall ring, SUD-UML's per-queue hold queues, the block core's parked
// requests, flush barriers and replay schedules); Bytes, a FIFO of byte
// strings packed into one ring, for frames that wait (on the wire, in a
// NIC's RX FIFO, in the shadow TX log); and Buffers, the free list of
// equally sized kernel buffers a path fills, hands over and takes back.
//
// A Queue is a ring over reusable storage. Popping never reslices the
// backing array away, so a queue that drains and refills reuses the same
// storage instead of regrowing it; storage grows (doubling) only when a push
// finds it full, so it stops at the queue's high-water mark.
package fifo

// Queue is a FIFO of T. The zero value is an empty queue ready to use.
type Queue[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int // number of queued elements
}

// Of returns a queue holding s's elements in order, adopting s as its
// storage.
func Of[T any](s []T) Queue[T] { return Queue[T]{buf: s, n: len(s)} }

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = v
	q.n++
}

// Peek returns the head element without removing it. It panics on an empty
// queue.
func (q *Queue[T]) Peek() T {
	if q.n == 0 {
		panic("fifo: peek on empty queue")
	}
	return q.buf[q.head]
}

// Pop removes and returns the head element. It panics on an empty queue.
// The vacated slot is zeroed so the queue keeps no reference to it.
func (q *Queue[T]) Pop() T {
	v := q.Peek()
	var zero T
	q.buf[q.head] = zero
	q.n--
	if q.head++; q.head == len(q.buf) || q.n == 0 {
		q.head = 0
	}
	return v
}

// Clear empties the queue, keeping its storage for reuse.
func (q *Queue[T]) Clear() {
	clear(q.buf)
	q.head, q.n = 0, 0
}

// grow doubles the storage (at least 4 slots), unrolling the ring so the
// head lands at index 0.
func (q *Queue[T]) grow() {
	nb := make([]T, max(2*len(q.buf), 4))
	k := copy(nb, q.buf[q.head:])
	copy(nb[k:], q.buf[:q.head])
	q.buf, q.head = nb, 0
}
