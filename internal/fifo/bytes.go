package fifo

// Bytes is a FIFO of byte strings packed into one ring of bytes — the store
// for frames that wait: on the wire, in a NIC's receive FIFO, in the shadow
// TX log. Push copies a string in; Peek returns a view of the oldest one
// that stays valid until it is popped. A Push in between never overwrites
// it: Push writes only free bytes, and growing copies the queued strings
// to new storage, leaving the old storage as it was. A string never wraps:
// when the tail has no contiguous room left, the next string starts over
// at offset 0 if the head has moved far enough past it, and the ring
// doubles only when neither end has room. So storage tracks the bytes in
// flight, not strings × the largest string.
//
// The zero value is an empty FIFO ready to use.
type Bytes struct {
	buf   []byte
	spans Queue[span] // the queued strings, oldest first
	tail  int         // offset in buf where the next string goes
	// upper counts the queued strings above the wrap point — the oldest
	// ones, pushed before the tail started over at 0. It is 0 while the
	// queued bytes form one run.
	upper int
	used  int // queued bytes
}

// span locates one queued string in the ring.
type span struct{ off, n int }

// Len returns the number of queued strings.
func (b *Bytes) Len() int { return b.spans.Len() }

// Push copies p in at the tail.
func (b *Bytes) Push(p []byte) {
	n := len(p)
	if b.spans.Len() == 0 {
		b.tail = 0
	}
	off, ok := b.room(n)
	if !ok {
		b.grow(n)
		off = b.tail
	} else if off < b.tail {
		// Starting over at 0: every queued string is now above the wrap.
		b.upper = b.spans.Len()
	}
	copy(b.buf[off:], p)
	b.spans.Push(span{off, n})
	b.tail = off + n
	b.used += n
}

// room returns where an n-byte string fits without moving anything.
func (b *Bytes) room(n int) (int, bool) {
	if b.upper > 0 {
		// Wrapped: free bytes lie between the tail and the head.
		return b.tail, b.spans.Peek().off-b.tail >= n
	}
	if len(b.buf)-b.tail >= n {
		return b.tail, true
	}
	if b.spans.Len() > 0 && b.spans.Peek().off >= n {
		return 0, true
	}
	return 0, false
}

// grow doubles the ring until the queued bytes plus n fit, packing the
// queued strings from offset 0 in order.
func (b *Bytes) grow(n int) {
	size := max(2*len(b.buf), 64)
	for size < b.used+n {
		size *= 2
	}
	nb := make([]byte, size)
	off := 0
	for i := b.spans.Len(); i > 0; i-- {
		s := b.spans.Pop()
		copy(nb[off:], b.buf[s.off:s.off+s.n])
		b.spans.Push(span{off, s.n})
		off += s.n
	}
	b.buf, b.tail, b.upper = nb, off, 0
}

// Peek returns the oldest string without removing it. The view is valid
// until that string is popped; the caller must not append to it. It panics
// on an empty FIFO.
func (b *Bytes) Peek() []byte {
	s := b.spans.Peek()
	return b.buf[s.off : s.off+s.n : s.off+s.n]
}

// Pop removes the oldest string. It panics on an empty FIFO.
func (b *Bytes) Pop() {
	s := b.spans.Pop()
	b.used -= s.n
	if b.upper > 0 {
		b.upper--
	}
}

// Clear empties the FIFO, keeping its storage for reuse.
func (b *Bytes) Clear() {
	b.spans.Clear()
	b.tail, b.upper, b.used = 0, 0, 0
}
