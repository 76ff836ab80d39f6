// Package api defines the Linux-like kernel/driver interface this repository's
// "unmodified" drivers are written against. It is the Go rendition of the
// kernel facilities in the paper's Figure 2 example: pci_enable_device,
// ioremap, dma_alloc_coherent, request_irq, register_netdev, netif_rx and
// friends.
//
// The point of the package is the SUD property: the same driver code runs in
// two hosts without modification —
//
//   - the trusted in-kernel host (internal/kernel), where every call is a
//     direct, fast kernel operation; and
//   - SUD-UML (internal/sudml), where the same calls are serviced in an
//     untrusted user-space process via downcalls to the safe PCI access
//     module and the uchan RPC layer.
//
// Drivers import only this package; they cannot tell which host they run in.
package api

import (
	"errors"

	"sud/internal/mem"
)

// MMIO is a mapped view of one memory BAR (the result of ioremap).
type MMIO interface {
	// Read32 reads the 32-bit register at byte offset off.
	Read32(off uint64) uint32
	// Write32 writes the 32-bit register at byte offset off.
	Write32(off uint64, v uint32)
}

// PortIO is an IO-space BAR claimed with RequestRegion (legacy devices).
type PortIO interface {
	// In8/Out8 access one byte-wide port at the given offset.
	In8(off uint64) uint8
	Out8(off uint64, v uint8)
	// In16/Out16 access a word-wide port.
	In16(off uint64) uint16
	Out16(off uint64, v uint16)
}

// DMABuf is DMA-capable memory (dma_alloc_coherent / the dma_caching pool).
// BusAddr is what the driver programs into device descriptors: in the
// in-kernel host it is a physical address; under SUD it is the IO virtual
// address mapped by the device's IOMMU page table (and, per §4.1, equal to
// the driver process's own virtual address for the buffer).
type DMABuf interface {
	BusAddr() mem.Addr
	Size() int
	// Read/Write access the buffer from the CPU side.
	Read(off int, p []byte) error
	Write(off int, p []byte) error
	// Slice returns a zero-copy view of [off, off+n) when the host can
	// map the range directly (it can, for ranges within one page); ok
	// reports success. Writes through the view are visible to DMA.
	Slice(off, n int) ([]byte, bool)
}

// ErrTxBusy is a transmit refused for want of room — a full TX ring, a busy
// transmitter, no free proxy slot. It is backpressure, not failure: the
// stack stops the queue until the driver wakes it. One shared value, so a
// refusal costs no formatting.
var ErrTxBusy = errors.New("api: transmit ring full")

// NetDevice is the driver's half of the netdev contract — the
// net_device_ops table from Figure 2.
type NetDevice interface {
	// Open prepares the device for operation (ndo_open: ifconfig up).
	Open() error
	// Stop quiesces the device (ndo_stop).
	Stop() error
	// StartXmit transmits one Ethernet frame (ndo_start_xmit). The
	// slice is valid only during the call: the caller reuses it once the
	// call returns, so a driver copies the frame into its own buffer (a
	// DMA ring slot, device SRAM, a proxy slot) before returning. A
	// driver with no room for the frame returns ErrTxBusy
	// (NETDEV_TX_BUSY).
	StartXmit(frame []byte) error
	// DoIoctl handles device-private ioctls (ndo_do_ioctl), e.g.
	// SIOCGMIIREG in the paper's example. The reply may be the driver's
	// own storage, valid until the next DoIoctl: a caller that keeps it
	// copies it.
	DoIoctl(cmd uint32, arg []byte) ([]byte, error)
}

// MultiQueueNetDevice is implemented by drivers whose hardware exposes more
// than one transmit queue. StartXmit remains the single-queue entry point
// (queue 0); hosts that are multi-queue aware steer per-flow traffic with
// StartXmitQ. Queue indices beyond TxQueues()-1 fall back to queue 0.
type MultiQueueNetDevice interface {
	NetDevice
	// TxQueues reports the number of hardware transmit queues.
	TxQueues() int
	// StartXmitQ transmits one frame on the given queue. Like
	// StartXmit's, the slice is valid only during the call.
	StartXmitQ(frame []byte, queue int) error
}

// PageRecycler is implemented by page-aware drivers participating in the
// page-flip fast path: the host delivers whole buffer pages to the kernel by
// ownership flip, and returns them here — already remapped — once the kernel
// is done. The driver re-arms descriptors (or frees slots) over the returned
// pages; until then it must not reuse them.
type PageRecycler interface {
	// RecyclePages returns flipped buffer pages (page-aligned bus
	// addresses) on queue q to the driver's pool.
	RecyclePages(q int, pages []mem.Addr)
}

// BatchKicker is implemented by drivers that stage device doorbell writes
// (TX tail, SQ tail) while a batch of host calls is serviced and flush them
// in one MMIO write when the batch ends — opportunistic submit-side doorbell
// coalescing. Hosts call KickPending at the end of every upcall drain; a
// driver must also flush internally wherever a staged doorbell could
// otherwise deadlock the device.
type BatchKicker interface {
	KickPending()
}

// Well-known ioctl commands.
const (
	// IoctlGetMIIStatus returns MII media status, the paper's
	// synchronous-upcall example.
	IoctlGetMIIStatus uint32 = 0x8948 // SIOCGMIIREG
)

// NetKernel is the kernel's half of the netdev contract: the calls a driver
// makes into the network core. The contract is queue-aware end to end — a
// single-queue driver is simply one that only ever names queue 0; there is
// no separate single-queue interface. Hosts keep per-queue state, so one
// backpressured queue never stalls its siblings.
type NetKernel interface {
	// NetifRx submits a received frame to the kernel's network stack,
	// tagged with the RX ring it arrived on. The slice is valid only
	// during the call: a driver may hand over a view of a DMA buffer it
	// re-arms as soon as the call returns, so a kernel that keeps the
	// frame copies it.
	NetifRx(frame []byte, queue int)
	// CarrierOn/CarrierOff report link state changes (the shared-memory
	// state the SUD proxy mirrors, §3.3).
	CarrierOn()
	CarrierOff()
	// WakeQueue re-enables transmission on one stopped TX queue after the
	// driver stopped it (ring full).
	WakeQueue(queue int)
}

// Env is the kernel environment a driver instance runs in: one bound PCI
// device plus the kernel services the driver may use.
type Env interface {
	// --- PCI configuration (filtered under SUD, §3.2.1) ---

	ConfigRead(off, size int) (uint32, error)
	ConfigWrite(off, size int, v uint32) error
	// EnableDevice enables memory/IO decoding (pci_enable_device).
	EnableDevice() error
	// SetMaster enables bus mastering (pci_set_master).
	SetMaster() error
	// FindCapability returns the config offset of the capability, or 0
	// (pci_find_capability — a paper Figure 7 downcall).
	FindCapability(id uint8) int

	// --- Device memory ---

	// IORemap maps memory BAR bar (ioremap).
	IORemap(bar int) (MMIO, error)
	// RequestRegion claims IO-space BAR bar (request_region); under SUD
	// this populates the process's IO permission bitmap (§3.2.1).
	RequestRegion(bar int) (PortIO, error)

	// --- DMA memory (§4.1 device files dma_coherent / dma_caching) ---

	// AllocCoherent allocates uncached DMA memory for descriptor rings.
	AllocCoherent(size int) (DMABuf, error)
	// AllocCaching allocates cached DMA memory for packet buffers.
	AllocCaching(size int) (DMABuf, error)
	// FreeDMA releases a DMA allocation.
	FreeDMA(DMABuf) error

	// --- Interrupts ---

	// RequestIRQ wires the device's MSI to handler (request_irq).
	RequestIRQ(handler func()) error
	// FreeIRQ unwires it (free_irq).
	FreeIRQ() error
	// IRQAck signals the driver has finished processing an interrupt;
	// under SUD this is the interrupt_ack downcall that unmasks the MSI
	// if SUD masked it (§3.2.2).
	IRQAck()

	// --- Kernel services ---

	// RegisterNetDev registers an Ethernet device (register_netdev) and
	// returns the kernel's half of the contract.
	RegisterNetDev(name string, macAddr [6]byte, dev NetDevice) (NetKernel, error)
	// Jiffies returns the kernel tick counter.
	Jiffies() uint64
	// Timer schedules fn to run once, delayJiffies ticks from now
	// (add_timer); drivers use it for watchdogs and scan timeouts.
	Timer(delayJiffies uint64, fn func())
	// Logf emits a kernel log line (printk).
	Logf(format string, args ...any)
}

// QueueDMAAllocator is implemented by hosts whose safe PCI access module
// splits DMA translation per hardware queue: an allocation tagged with a
// queue's stream (the PASID-like tag that queue's engine stamps on its DMA)
// is mapped only into that queue's IOMMU sub-domain, so a descriptor on a
// sibling queue naming it faults at the walk. Hosts without the split — the
// trusted in-kernel host runs the device in passthrough — simply do not
// implement this, and drivers fall back to shared allocations.
type QueueDMAAllocator interface {
	// AllocCoherentQ is AllocCoherent owned by the queue stamping stream.
	AllocCoherentQ(size, stream int) (DMABuf, error)
	// AllocCachingQ is AllocCaching owned by the queue stamping stream.
	AllocCachingQ(size, stream int) (DMABuf, error)
}

// AllocCoherentQ allocates ring memory owned by one hardware queue when the
// host supports the per-queue DMA split, and a shared allocation otherwise.
// Drivers call this helper so the same source runs unmodified in both hosts.
func AllocCoherentQ(env Env, size, stream int) (DMABuf, error) {
	if q, ok := env.(QueueDMAAllocator); ok && stream > 0 {
		return q.AllocCoherentQ(size, stream)
	}
	return env.AllocCoherent(size)
}

// AllocCachingQ is the buffer-pool counterpart of AllocCoherentQ.
func AllocCachingQ(env Env, size, stream int) (DMABuf, error) {
	if q, ok := env.(QueueDMAAllocator); ok && stream > 0 {
		return q.AllocCachingQ(size, stream)
	}
	return env.AllocCaching(size)
}

// Driver is a device driver module: identity, match rule, probe entry point.
type Driver interface {
	// Name is the module name ("e1000e", "ne2k-pci", ...).
	Name() string
	// Match reports whether the driver claims the PCI ID.
	Match(vendor, device uint16) bool
	// Probe binds the driver to the device exposed through env.
	Probe(env Env) (Instance, error)
}

// Instance is one bound driver instance.
type Instance interface {
	// Remove unbinds the driver (module unload / device removal).
	Remove()
}
