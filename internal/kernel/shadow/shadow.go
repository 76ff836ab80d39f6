// Package shadow is the kernel's shadow-driver recovery layer — the
// mechanism that makes the death of an untrusted driver process invisible to
// applications. The paper points at exactly this extension (§2: "SUD's
// architecture could also use shadow drivers to gracefully restart untrusted
// device drivers"; §5.2: "It is also relatively simple to restart a crashed
// device driver"); this package supplies the state it needs.
//
// A shadow object passively mirrors, via hooks on the existing upcall paths,
// everything the kernel would have to re-establish if the driver process
// were killed this instant:
//
//   - Block devices (Block): the namespace geometry mirrored at registration
//     and a per-queue in-flight request log keyed by the kernel-allocated
//     tag. Every request the block core dispatches to the driver is recorded
//     (sharing the block core's own copy of a write payload, which it keeps
//     unchanged until the entry is erased) and erased when its completion is
//     delivered. After a kill,
//     the log IS the set of requests the dead incarnation swallowed — the
//     recovery path replays it, in per-queue submission order and under the
//     original tags, against the restarted process.
//
//   - Network interfaces (Net): the static configuration snapshot — MAC,
//     IP address, admin up state, carrier, and the armed queue count (which
//     under RSS also determines the RETA programming the restarted driver
//     re-derives at open) — plus a bounded per-queue TX log of frames handed
//     to the driver but not yet confirmed transmitted (the xmit-done credit
//     is the confirmation). After a kill the log is the set of frames the
//     dead incarnation swallowed; recovery replays them through the
//     restarted driver, so a kill is invisible at the packet level too. A
//     frame that was transmitted but whose credit died with the process
//     replays as a duplicate — at-least-once, like a replayed block write.
//
// The shadow is recording only: it never talks to a driver. The recovery
// protocol around it lives in the device cores (internal/kernel/blockdev,
// internal/kernel/netstack — parking, adoption, replay, and the per-device
// epoch that lets proxies reject completions from a dead incarnation) and in
// the supervisor (internal/sudml), which detects death, respawns the
// process, and drives replay.
package shadow

import (
	"bytes"

	"sud/internal/drivers/api"
	"sud/internal/fifo"
	"sud/internal/flatmap"
)

// PendingBlock is one logged in-flight block request: the queue it was
// dispatched on, the request itself (tag included), and its submission
// sequence number, which fixes the per-queue replay order.
type PendingBlock struct {
	Q   int
	Req api.BlockRequest
	Seq uint64
}

// Block is the shadow of one block device: geometry plus the in-flight
// request log.
type Block struct {
	// Geom is the namespace geometry mirrored at registration — the static
	// state (§3.3) a restarted driver must agree on before adoption.
	Geom api.BlockGeometry

	seq uint64
	log flatmap.Map[uint64, PendingBlock] // tag → pending request

	// Replayed counts requests re-submitted across all recoveries.
	Replayed uint64
}

// NewBlock returns an empty block shadow for a device with the given
// geometry.
func NewBlock(geom api.BlockGeometry) *Block {
	return &Block{Geom: geom}
}

// RecordSubmit logs one request handed to the driver on queue q. The log
// shares the write payload instead of copying it: req.Data is the block
// core's own copy, which the core neither changes nor reuses until
// RecordComplete has erased the entry, so the entry outlives a driver that
// dies without completing.
func (s *Block) RecordSubmit(q int, req api.BlockRequest) {
	s.log.Put(req.Tag, PendingBlock{Q: q, Req: req, Seq: s.seq})
	s.seq++
}

// RecordComplete erases tag's log entry: its completion was delivered, so a
// future recovery must not replay it (a write replayed after completing
// would be harmlessly idempotent, but a read would complete twice).
func (s *Block) RecordComplete(tag uint64) {
	s.log.Delete(tag)
}

// Pending reports the logged in-flight request count.
func (s *Block) Pending() int { return s.log.Len() }

// PendingByQueue returns the log split per queue (clamped to nq queues),
// each queue's requests in original submission order — the replay schedule.
// The log itself is untouched: entries leave it only through RecordComplete,
// so a second kill during replay rebuilds the schedule from what is still
// genuinely unfinished.
func (s *Block) PendingByQueue(nq int) [][]PendingBlock {
	if nq < 1 {
		nq = 1
	}
	out := make([][]PendingBlock, nq)
	for _, p := range s.log.All() {
		q := p.Q
		if q < 0 || q >= nq {
			q = 0
		}
		out[q] = append(out[q], p)
	}
	for q := range out {
		sortBySeq(out[q])
	}
	return out
}

// PendingForQueue returns only queue q's unfinished requests in original
// submission order — the replay schedule for a surgical single-queue
// recovery. Queue indices are clamped the same way PendingByQueue clamps
// them, so an entry logged against an out-of-range queue replays on queue 0.
// Like PendingByQueue this is non-consuming: entries leave the log only
// through RecordComplete.
func (s *Block) PendingForQueue(q, nq int) []PendingBlock {
	if nq < 1 {
		nq = 1
	}
	var out []PendingBlock
	for _, p := range s.log.All() {
		pq := p.Q
		if pq < 0 || pq >= nq {
			pq = 0
		}
		if pq == q {
			out = append(out, p)
		}
	}
	sortBySeq(out)
	return out
}

// Reset drops the log (device unregistered while recovering: the parked
// requests were failed, so there is nothing left to replay).
func (s *Block) Reset() {
	s.log.Clear()
}

// sortBySeq orders a replay slice by submission sequence (insertion sort:
// replay slices are bounded by the per-queue hardware depth).
func sortBySeq(ps []PendingBlock) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].Seq < ps[j-1].Seq; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// Net is the shadow of one network interface: the configuration snapshot
// captured at each driver death (the netstack's BeginRecovery hook). The
// replay path consumes IP and Up — the admin state CompleteRecovery
// restores before re-opening the driver. The remaining fields are the
// recorded mirror of what the restart must reproduce by other means, kept
// so recovery can be *verified* rather than trusted: MAC is the adoption
// identity (the live interface carries the same value the stack matches
// on), Carrier must reappear through the restarted driver's own mirroring
// downcall, and Queues is the ring fan-out the restarted driver must
// re-arm (under RSS, the range its RETA programming round-robins over) —
// the recovery tests and the DriverRevive matrix row check all three.
type Net struct {
	MAC     [6]byte
	IP      [4]byte
	Up      bool
	Carrier bool
	Queues  int

	// Snapshots counts BeginRecovery captures (one per death).
	Snapshots uint64

	// txLog is the per-queue FIFO of unconfirmed transmitted frames. Frames
	// are copied in by RecordXmit once the driver accepted them and popped
	// — oldest first, matching the driver's in-order ring reclaim — by
	// ConfirmXmit when the xmit-done credit returns.
	txLog []fifo.Bytes

	// TxLogged / TxConfirmed / TxReplayed / TxOverflow count log appends,
	// credit-confirmed removals, frames re-submitted by recoveries, and
	// oldest-entry evictions at TxLogCap.
	TxLogged, TxConfirmed, TxReplayed, TxOverflow uint64
}

// TxLogCap bounds each queue's unconfirmed-frame log. It matches the TX
// slot-pool depth — a queue can never have more frames genuinely in flight —
// so eviction only fires when confirmations are being withheld.
const TxLogCap = 256

func (s *Net) queueLog(q int) int {
	if q < 0 {
		q = 0
	}
	for len(s.txLog) <= q {
		s.txLog = append(s.txLog, fifo.Bytes{})
	}
	return q
}

// RecordXmit logs one frame the driver accepted on queue q. The log copies
// the frame — the caller reuses its buffer once StartXmit returns — so the
// entry outlives a driver that dies before confirming it.
func (s *Net) RecordXmit(q int, frame []byte) {
	log := &s.txLog[s.queueLog(q)]
	if log.Len() >= TxLogCap {
		log.Pop()
		s.TxOverflow++
	}
	log.Push(frame)
	s.TxLogged++
}

// ConfirmXmit erases queue q's oldest unconfirmed frame: its xmit-done
// credit arrived, so the frame left the device and must not be replayed.
func (s *Net) ConfirmXmit(q int) {
	log := &s.txLog[s.queueLog(q)]
	if log.Len() == 0 {
		return
	}
	log.Pop()
	s.TxConfirmed++
}

// PendingTx reports queue q's unconfirmed-frame count.
func (s *Net) PendingTx(q int) int {
	return s.txLog[s.queueLog(q)].Len()
}

// TakePendingTx consumes and returns copies of queue q's unconfirmed frames
// in original submission order — the replay schedule. Unlike the block log
// (keyed by tag, erased on completion), replayed frames re-enter the log
// through the normal RecordXmit path as the recovery re-submits them, so
// the entries must leave it first.
func (s *Net) TakePendingTx(q int) [][]byte {
	log := &s.txLog[s.queueLog(q)]
	var out [][]byte
	for log.Len() > 0 {
		out = append(out, bytes.Clone(log.Peek()))
		log.Pop()
	}
	return out
}
