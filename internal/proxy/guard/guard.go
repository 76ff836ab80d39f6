// Package guard centralises the proxies' §3.1.2 guard-copy primitives.
// Every class proxy must move driver-reachable bytes out of shared memory
// (or verify bytes that already crossed the ring inline) before the kernel
// acts on them; routing those transfers through one helper gives uniform
// CPU charging and uniform accounting, so ablations can compare guard bytes
// across device classes instead of re-deriving each proxy's hand-rolled
// copy. The Ethernet and block proxies keep their specialised fused and
// page-flip guards (their guard-copy buffers come from a fifo.Buffers free
// list); this package is the plain leg the low-rate classes (wireless,
// audio) share.
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

// VerifyInline charges the verification leg for n bytes that arrived inline
// in a ring message — the transfer was the copy, so only the check remains —
// and records them in st.
func VerifyInline(acct *sim.CPUAccount, st *Stats, n int) {
	acct.Charge(sim.Checksum(n))
	st.VerifiedBytes += uint64(n)
}
