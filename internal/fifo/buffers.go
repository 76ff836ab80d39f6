package fifo

// Buffers is a free list of equally sized byte buffers, for a kernel path
// that fills a buffer, hands it down or up, and takes it back when the call
// returns: the proxies' guard copies and the network stack's TX frames.
// The user fills Get's buffer, delivers it, and Puts it back when the
// delivery returns: a delivered buffer is valid only inside its callback,
// and a delivery made from inside that callback gets a buffer of its own,
// because the outer one is not back yet.
type Buffers struct {
	size int
	free [][]byte
}

// NewBuffers returns an empty free list of size-byte buffers.
func NewBuffers(size int) *Buffers { return &Buffers{size: size} }

// Get returns a buffer of n bytes, n at most the list's size: a recycled
// one when any is free.
func (b *Buffers) Get(n int) []byte {
	if k := len(b.free); k > 0 {
		buf := b.free[k-1]
		b.free = b.free[:k-1]
		return buf[:n]
	}
	return make([]byte, n, b.size)
}

// Put takes back a buffer from Get once the delivery that used it returned.
func (b *Buffers) Put(buf []byte) { b.free = append(b.free, buf) }
