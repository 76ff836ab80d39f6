// Package guard centralises the proxies' §3.1.2 guard-copy primitives.
// Every class proxy must move driver-reachable bytes out of shared memory
// (or verify bytes that already crossed the ring inline) before the kernel
// acts on them; routing those transfers through one helper gives uniform
// CPU charging and uniform accounting, so ablations can compare guard bytes
// across device classes instead of re-deriving each proxy's hand-rolled
// copy. The Ethernet and block proxies keep their specialised fused and
// page-flip guards, sharing only the recycled guard-copy Buffers — the rest
// of this package is the plain leg the low-rate classes (wireless, audio)
// share.
package guard

import "sud/internal/sim"

// Stats is the shared guard accounting a proxy embeds: how many bytes its
// guard moved or verified on behalf of the kernel.
type Stats struct {
	// CopiedBytes counts bytes moved through a guard copy; Copies counts
	// the individual copies.
	CopiedBytes uint64
	Copies      uint64
	// VerifiedBytes counts inline bytes whose transfer through the ring
	// was itself the copy, leaving only checksum-style verification.
	VerifiedBytes uint64
}

// CopyIn guard-copies payload into a fresh kernel-owned buffer, charging the
// copy to acct and recording it in st. The returned buffer is stable: later
// driver stores to the source cannot change what the kernel acts on.
func CopyIn(acct *sim.CPUAccount, st *Stats, payload []byte) []byte {
	acct.Charge(sim.Copy(len(payload)))
	st.CopiedBytes += uint64(len(payload))
	st.Copies++
	buf := make([]byte, len(payload))
	copy(buf, payload)
	return buf
}

// Buffers is a free list of the kernel buffers a proxy guard-copies
// payloads into, all of one size. The proxy copies into Get's buffer,
// delivers it, and Puts it back when the delivery returns: a delivered
// payload is valid only inside its callback, and a delivery made from
// inside that callback gets a buffer of its own, because the outer one is
// not back yet.
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

// VerifyInline charges the verification leg for n bytes that arrived inline
// in a ring message — the transfer was the copy, so only the check remains —
// and records them in st.
func VerifyInline(acct *sim.CPUAccount, st *Stats, n int) {
	acct.Charge(sim.Checksum(n))
	st.VerifiedBytes += uint64(n)
}
