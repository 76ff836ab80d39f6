package api

// This file defines the block-device class contract: the Linux-like
// blk-mq-flavoured interface an NVMe-class storage driver is written against.
// Like the netdev contract, the identical driver code runs in the trusted
// in-kernel host and inside an untrusted SUD process; it cannot tell the
// difference. The multi-queue shape is native here — NVMe's per-CPU
// submission/completion queue pairs map one-to-one onto the host's queue
// contexts (and, under SUD, onto the uchan ring pairs).

// BlockGeometry describes a block device's media: Blocks logical blocks of
// BlockSize bytes each, plus whether the device holds acked writes in a
// volatile write cache (in which case Flush/FUA are what make them
// durable). It is static state mirrored into the kernel at registration
// (§3.3), never fetched by upcall.
type BlockGeometry struct {
	BlockSize  int
	Blocks     uint64
	WriteCache bool
}

// Bytes returns the media capacity in bytes.
func (g BlockGeometry) Bytes() uint64 { return g.Blocks * uint64(g.BlockSize) }

// BlockRequest is one single-block I/O request handed to the driver. The
// host allocates Tag and matches it against the completion; the driver
// treats it as an opaque cookie (like a blk-mq tag).
type BlockRequest struct {
	// Write selects the direction: true writes Data to LBA, false reads
	// LBA (the payload arrives via BlockKernel.Complete).
	Write bool
	// LBA is the logical block address.
	LBA uint64
	// Data is the write payload (exactly BlockSize bytes); nil for reads.
	// The callee must not retain it past Submit — it copies the payload
	// into its own DMA memory, as ring-based drivers do.
	Data []byte
	// Tag is the host's completion cookie, echoed in Complete.
	Tag uint64
	// Flush marks a cache-flush barrier (REQ_OP_FLUSH): no LBA or Data;
	// the driver must issue the device's flush command and complete the
	// request only once every previously acked write is durable.
	Flush bool
	// FUA marks a force-unit-access write (REQ_FUA): the payload must be
	// durable — past any volatile cache — before the completion.
	FUA bool
}

// BlockDevice is the driver's half of the block contract — a condensed
// blk_mq_ops table.
type BlockDevice interface {
	// Open prepares the device: create hardware queue pairs, arm
	// interrupts (like blk-mq init_hctx + the admin bring-up).
	Open() error
	// Stop quiesces the device and releases its queues.
	Stop() error
	// Queues reports the number of hardware I/O queue pairs.
	Queues() int
	// Submit enqueues req on hardware queue q. A full queue returns an
	// error; the host stops that queue's submission path until the driver
	// calls BlockKernel.WakeQueueQ (BLK_STS_RESOURCE semantics).
	//
	// Ownership: req.Data belongs to the host and must not be retained
	// after Submit returns. The driver copies the payload synchronously
	// (into its DMA buffer, or its channel slot under SUD). The host keeps
	// the buffer unchanged for replay until the request completes, then
	// reuses it for a later write.
	Submit(q int, req BlockRequest) error
}

// BlockKernel is the kernel's half of the block contract: the calls a driver
// makes into the block core. Completions are per queue, so one queue's
// backpressure or completion storm never stalls a sibling.
type BlockKernel interface {
	// Complete reports request tag finished on queue q. data is the read
	// payload (nil for writes or failures). Under SUD only a shared-buffer
	// reference crosses the channel; the proxy validates it against the
	// driver's own DMA allocations and guard-copies it before the kernel
	// sees the bytes (§3.1.2 applied to storage).
	//
	// data is lent for the duration of the call: the caller may reuse it
	// once Complete returns (a trusted driver its DMA slot, the proxy its
	// guard-copy buffer), and the block core hands it to the request's
	// callback under the same rule.
	Complete(q int, tag uint64, err error, data []byte)
	// WakeQueueQ re-enables submission on one stopped queue.
	WakeQueueQ(q int)
}

// EnvBlock is implemented by hosts that support block drivers.
type EnvBlock interface {
	// RegisterBlockDev registers a block device (register_blkdev /
	// add_disk) and returns the kernel's half of the contract.
	RegisterBlockDev(name string, geom BlockGeometry, dev BlockDevice) (BlockKernel, error)
}
