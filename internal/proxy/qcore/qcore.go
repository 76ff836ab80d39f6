// Package qcore is the per-queue machinery the multi-queue proxies share.
// The Ethernet and block proxies each embed one Core — the slot pools with
// their stall and wake, the epoch fence, the page-flip recycle lane, the
// synchronous upcalls and name uniquing, and the counters both keep — and
// keep only their payload decode, their guards and their kernel callback.
// docs/ARCHITECTURE.md says what a class supplies and why the two re-arms
// differ.
package qcore

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"sud/internal/mem"
	"sud/internal/proxy/pciaccess"
	"sud/internal/proxy/protocol"
	"sud/internal/sim"
	"sud/internal/uchan"
)

// Device is the kernel object whose epochs the fence reads.
type Device interface {
	// Epoch is the device's incarnation; recovery onto a restarted
	// driver moves it.
	Epoch() uint64
	// QueueEpoch is queue q's own incarnation; a surgical quarantine
	// moves it.
	QueueEpoch(q int) uint64
}

// Config is what a class sets; no user sets it.
type Config struct {
	Class     string // error prefix: "ethproxy", "blkproxy"
	PoolLabel string // per-queue pool label, formatted with the queue index
	Slots     int    // slots per queue
	SlotSize  int    // bytes per slot
	RecycleOp uint32 // the class's OpPageRecycle upcall
	QStateOp  uint32 // the class's OpQueueEpoch upcall
}

// RecycleThreshold is how many lent pages accumulate on a queue before the
// lane flushes them in one recycle upcall: small against a driver's ring
// (128 pages per e1000e queue, 64 per NVMe queue) so its pool never
// starves, large enough that recycle costs amortise.
const RecycleThreshold = 16

// Core is one proxy's per-queue state. Its exported fields and counters
// are promoted through the embedding proxy.
type Core struct {
	DF *pciaccess.DeviceFile
	C  *uchan.MultiChan

	cfg  Config
	acct *sim.CPUAccount
	wake func(q int)

	pools   []*pciaccess.Alloc
	free    [][]int // per queue, queue-local slot indices; taken from the end
	claimed []bool  // q*Slots + slot
	stalled []bool

	// dev is the device bound at Bind, and epoch its incarnation then;
	// qepoch mirrors each queue's epoch as of the last re-arm.
	dev    Device
	epoch  uint64
	qepoch []uint64

	// lent holds, per queue, pages (by IOVA) waiting for the recycle
	// flush back to the driver, each once, in the order lent.
	lent [][]uint64

	UpcallErrors     uint64
	GuardCopiedBytes uint64 // bytes that went through a guard copy
	PagesFlipped     uint64
	Shootdowns       uint64 // batch-amortised IOTLB shootdowns
	RecycleUpcalls   uint64
	RecycleAcks      uint64
	RecycleBadAck    uint64 // malformed ack framing from the driver
	RecycleStaleAck  uint64 // acks carrying a dead incarnation's epoch
}

// Init allocates one slot pool per ring of c, in queue order, with every
// slot free. acct is charged for recycle remaps; wake releases a stalled
// queue's kernel context once it has headroom again.
func (k *Core) Init(cfg Config, acct *sim.CPUAccount, df *pciaccess.DeviceFile, c *uchan.MultiChan, wake func(q int)) error {
	n := c.NumQueues()
	*k = Core{DF: df, C: c, cfg: cfg, acct: acct, wake: wake,
		pools:   make([]*pciaccess.Alloc, n),
		free:    make([][]int, n),
		claimed: make([]bool, n*cfg.Slots),
		stalled: make([]bool, n),
		qepoch:  make([]uint64, n),
		lent:    make([][]uint64, n),
	}
	for q := range k.pools {
		// The kernel tags its pools itself: a sibling queue's descriptor
		// naming a slot here faults at the walk whether or not the driver
		// cooperates.
		pool, err := df.AllocDMAQ(cfg.Slots*cfg.SlotSize, fmt.Sprintf(cfg.PoolLabel, q), false, q+1)
		if err != nil {
			return fmt.Errorf("%s: allocating queue %d pool: %w", cfg.Class, q, err)
		}
		k.pools[q] = pool
		k.free[q] = make([]int, cfg.Slots)
		for s := range k.free[q] {
			k.free[q][s] = s
		}
	}
	return nil
}

// Bind records dev's epochs: from here on the fence measures against them.
func (k *Core) Bind(dev Device) {
	k.dev = dev
	k.epoch = dev.Epoch()
	for q := range k.qepoch {
		k.qepoch[q] = dev.QueueEpoch(q)
	}
}

// NumQueues is the number of ring pairs.
func (k *Core) NumQueues() int { return len(k.qepoch) }

// Clamp maps a queue index the driver chose onto a real queue (0 if out of
// range).
func (k *Core) Clamp(q int) int {
	if q < 0 || q >= len(k.qepoch) {
		return 0
	}
	return q
}

// --- slot pools -----------------------------------------------------------

// SlotsPerQueue is each queue's pool partition.
func (k *Core) SlotsPerQueue() int { return k.cfg.Slots }

// Pools returns the per-queue slot-pool allocations.
func (k *Core) Pools() []*pciaccess.Alloc { return k.pools }

// NextSlot returns the slot queue q's next claim takes. With none free the
// queue stalls until a release brings it past the wake threshold.
func (k *Core) NextSlot(q int) (int, bool) {
	f := k.free[q]
	if len(f) == 0 {
		k.stalled[q] = true
		return 0, false
	}
	return f[len(f)-1], true
}

// Claim takes the slot NextSlot returned, once the upcall naming it is
// queued.
func (k *Core) Claim(q int) {
	f := k.free[q]
	k.claimed[q*k.cfg.Slots+f[len(f)-1]] = true
	k.free[q] = f[:len(f)-1]
}

// Claimed reports whether slot is out with the driver.
func (k *Core) Claimed(q, slot int) bool { return k.claimed[q*k.cfg.Slots+slot] }

// Release returns slot to queue q's free list. A slot that is not claimed
// is refused: freeing it again would hand one slot to two requests.
func (k *Core) Release(q, slot int) bool {
	i := q*k.cfg.Slots + slot
	if !k.claimed[i] {
		return false
	}
	k.claimed[i] = false
	k.free[q] = append(k.free[q], slot)
	return true
}

// SlotAddr returns slot's bus and physical addresses.
func (k *Core) SlotAddr(q, slot int) (iova, phys mem.Addr) {
	off := mem.Addr(slot * k.cfg.SlotSize)
	return k.pools[q].IOVA + off, k.pools[q].Phys + off
}

// FreeSlots reports the free slots across all queues.
func (k *Core) FreeSlots() int {
	n := 0
	for _, f := range k.free {
		n += len(f)
	}
	return n
}

// Stall stops queue q until MaybeWake finds headroom (its ring is full).
func (k *Core) Stall(q int) { k.stalled[q] = true }

// Unstall clears q's stall without a wake.
func (k *Core) Unstall(q int) { k.stalled[q] = false }

// WakeThreshold is how many of a queue's slots must be free before a
// stalled queue is woken: one eighth of the partition, because waking per
// released slot would thrash the sender (netdev drivers batch wakes alike).
func (k *Core) WakeThreshold() int { return max(k.cfg.Slots/8, 1) }

// MaybeWake wakes stalled queue q once it regains headroom. The wake is
// per queue: a sibling still out of slots stays stopped.
func (k *Core) MaybeWake(q int) {
	if !k.stalled[q] || len(k.free[q]) < k.WakeThreshold() {
		return
	}
	k.stalled[q] = false
	k.wake(q)
}

// --- the epoch fence ------------------------------------------------------

// Stale reports that the device moved on to a newer driver incarnation:
// every downcall still signed by this proxy is from a dead one.
func (k *Core) Stale() bool { return k.dev.Epoch() != k.epoch }

// BoundEpoch is the device incarnation this proxy bound at.
func (k *Core) BoundEpoch() uint64 { return k.epoch }

// QueueParked reports that queue q is quarantined and not yet re-armed:
// its buffers sit in a revoked sub-domain.
func (k *Core) QueueParked(q int) bool { return k.dev.QueueEpoch(q) != k.qepoch[q] }

// QueueEpochMirror reports the queue epoch this proxy last re-armed at
// (tests, sudctl).
func (k *Core) QueueEpochMirror(q int) uint64 {
	if q < 0 || q >= len(k.qepoch) {
		return 0
	}
	return k.qepoch[q]
}

// ParkQueue tells the driver runtime queue q is quarantined: a parked
// qstate frame carrying the epoch the runtime holds. Advisory; the fence
// enforces the quarantine regardless.
func (k *Core) ParkQueue(q int) {
	if q >= 0 && q < len(k.qepoch) {
		k.sendQState(q, protocol.QStateParked)
	}
}

// RearmQueue re-syncs queue q with its new incarnation after a surgical
// quarantine: pages on its recycle lane go back to the driver (its
// sub-domain is re-armed by now), the mirror adopts the queue's epoch, and
// an armed qstate frame re-syncs the runtime.
func (k *Core) RearmQueue(q int) {
	if q < 0 || q >= len(k.qepoch) {
		return
	}
	k.FlushRecycle(q)
	k.qepoch[q] = k.dev.QueueEpoch(q)
	k.sendQState(q, protocol.QStateArmed)
}

func (k *Core) sendQState(q int, flags uint8) {
	var frame [protocol.QStateLen]byte
	s := protocol.QState{Queue: q, Epoch: uint32(k.qepoch[q]), Flags: flags}
	if err := k.C.ASend(q, uchan.Msg{Op: k.cfg.QStateOp, Data: protocol.AppendQState(frame[:0], s)}); err != nil {
		k.UpcallErrors++
	}
}

// --- the recycle lane -----------------------------------------------------

// Lend queues page on q's recycle lane, once however often it is lent, in
// the order first lent. A page whose revoke failed, or that never flipped,
// rides along as the ownership token a page-aware driver re-arms on.
func (k *Core) Lend(q int, page uint64) {
	if !slices.Contains(k.lent[q], page) {
		k.lent[q] = append(k.lent[q], page)
	}
}

// MaybeFlush flushes q's lane once RecycleThreshold pages wait on it.
func (k *Core) MaybeFlush(q int) {
	if len(k.lent[q]) >= RecycleThreshold {
		k.FlushRecycle(q)
	}
}

// Lent returns the pages waiting on q's lane (tests).
func (k *Core) Lent(q int) []uint64 { return k.lent[q] }

// FlushRecycle returns q's lent pages in recycle upcalls of at most
// protocol.MaxRecyclePages: a flipped page is remapped into the driver's
// domain first, and skipped if the remap fails (the device file is gone
// with the driver); an unflipped one never left the domain and goes back
// as is.
func (k *Core) FlushRecycle(q int) {
	pending := k.lent[q]
	k.lent[q] = pending[:0]
	for len(pending) > 0 {
		n := min(len(pending), protocol.MaxRecyclePages)
		var buf [protocol.MaxRecyclePages]uint64
		returned := buf[:0]
		for _, page := range pending[:n] {
			if k.DF.PageRevoked(mem.Addr(page)) {
				if err := k.DF.RecyclePage(mem.Addr(page)); err != nil {
					continue
				}
				k.acct.Charge(sim.CostPageRecycleMap)
			}
			returned = append(returned, page)
		}
		pending = pending[n:]
		if len(returned) == 0 {
			continue
		}
		var frame [protocol.MaxRecycleLen]byte
		err := k.C.ASend(q, uchan.Msg{Op: k.cfg.RecycleOp,
			Data: protocol.AppendRecycle(frame[:0], uint32(k.epoch), returned)})
		if err != nil {
			// The pages are back in the driver's domain either way; a
			// hung ring just means the driver never re-arms them.
			k.UpcallErrors++
			continue
		}
		k.RecycleUpcalls++
	}
}

// RecycleAck checks one recycle ack from the driver: the frame must decode
// and carry the bound epoch, or it is a dead incarnation's leftover (or a
// forgery) and names pages of the new incarnation's pool.
func (k *Core) RecycleAck(data []byte) {
	var buf [protocol.MaxRecyclePages]uint64
	epoch, pages, err := protocol.DecodeRecycle(buf[:], data)
	switch {
	case err != nil:
		k.RecycleBadAck++
	case epoch != uint32(k.epoch):
		k.RecycleStaleAck++
	default:
		k.RecycleAcks += uint64(len(pages))
	}
}

// --- registration and synchronous upcalls -------------------------------

// Call forwards a synchronous, interruptible upcall (open, stop, ioctl)
// and returns the driver's reply payload; what names the operation in
// errors.
func (k *Core) Call(what string, m uchan.Msg) ([]byte, error) {
	reply, err := k.C.Send(m)
	if err != nil {
		k.UpcallErrors++
		return nil, fmt.Errorf("%s: %s upcall: %w", k.cfg.Class, what, err)
	}
	if reply.Args[0] != 0 {
		return nil, fmt.Errorf("%s: driver %s failed: %s", k.cfg.Class, what, reply.Data)
	}
	return reply.Data, nil
}

// RegisterUnique registers under name; while register fails with taken, it
// substitutes into the name's own template (trailing digits stripped, like
// the kernel's "eth%d") until a free name is found, as the netdev and block
// cores name additional devices. Any other failure propagates unchanged.
func RegisterUnique[T any](name string, taken error, register func(string) (T, error)) (T, error) {
	d, err := register(name)
	if err == nil || !errors.Is(err, taken) {
		return d, err
	}
	base := strings.TrimRight(name, "0123456789")
	if base == "" {
		base = name
	}
	var zero T
	for i := 1; i < 16; i++ {
		d, retryErr := register(fmt.Sprintf("%s%d", base, i))
		if retryErr == nil {
			return d, nil
		}
		if !errors.Is(retryErr, taken) {
			return zero, retryErr
		}
	}
	return zero, err
}
