// Package irq models the interrupt delivery path SUD must secure (§3.2.2):
// an MSI controller that turns memory writes in the 0xFEE00000 window into
// CPU vectors, an optional VT-d-style interrupt remapping table with source
// validation, and interrupt-rate accounting for storm/livelock detection.
//
// The key property from the paper: "it is impossible to determine whether a
// write to the MSI address was caused by a real interrupt, or a stray DMA
// write to the same address". Without interrupt remapping, any DMA the IOMMU
// lets through to the MSI window becomes a real CPU interrupt.
package irq

import (
	"fmt"

	"sud/internal/mem"
	"sud/internal/pci"
	"sud/internal/sim"
)

// Vector is an x86 interrupt vector. Vectors below 0x20 are CPU exceptions
// and cannot be assigned to devices.
type Vector uint8

// FirstUsable is the lowest vector assignable to a device interrupt.
const FirstUsable Vector = 0x20

// Handler processes one delivered interrupt. It runs in (simulated)
// interrupt context.
type Handler func(v Vector)

// IRTE is one interrupt remapping table entry. With remapping enabled, an
// MSI write is treated as an index into this table rather than as a raw
// vector, and the entry's source field is validated against the requester —
// which is how SUD "disable[s] MSI interrupts from that device altogether"
// when masking fails (§3.2.2).
type IRTE struct {
	Valid  bool
	Masked bool
	Source pci.BDF // only this requester may trigger the entry
	Vector Vector
}

// RemapTable is the interrupt remapping table.
type RemapTable struct {
	entries [256]IRTE
	// Blocked counts messages dropped by the table (invalid entry,
	// masked entry, or source mismatch).
	Blocked uint64
}

// Set installs entry idx.
func (t *RemapTable) Set(idx uint8, e IRTE) { t.entries[idx] = e }

// Get returns entry idx.
func (t *RemapTable) Get(idx uint8) IRTE { return t.entries[idx] }

// SetMasked masks or unmasks entry idx.
func (t *RemapTable) SetMasked(idx uint8, masked bool) {
	t.entries[idx].Masked = masked
}

// Controller is the platform interrupt controller (MSI controller + LAPIC
// collapsed into one component).
type Controller struct {
	loop *sim.Loop

	// Remap is the interrupt remapping table; nil when the chipset does
	// not support interrupt remapping (like the paper's test machine,
	// §5.2) or the OS has not enabled it.
	Remap *RemapTable

	handlers [256]Handler
	counts   [256]uint64
	spurious uint64
	// dispatchFn holds each vector's handler dispatch, bound on the
	// vector's first delivery.
	dispatchFn [256]func()

	// DeliveryLatency is the MSI-write-to-handler-dispatch latency.
	DeliveryLatency sim.Duration

	// Storm detection: a sliding-window rate estimator per vector.
	StormThreshold int          // deliveries per window to trigger OnStorm
	StormWindow    sim.Duration // window length
	OnStorm        func(v Vector, rate int)
	windowStart    [256]sim.Time
	windowCount    [256]int
	stormSignalled [256]bool
}

// NewController returns a controller with SUD's default storm policy
// (an interrupt rate above ~50k/s per vector flags a storm).
func NewController(loop *sim.Loop) *Controller {
	return &Controller{
		loop:            loop,
		DeliveryLatency: 1 * sim.Microsecond,
		StormThreshold:  500,
		StormWindow:     10 * sim.Millisecond,
	}
}

// Register installs h as the handler for vector v. Registering nil removes
// the handler; interrupts on unhandled vectors count as spurious.
func (c *Controller) Register(v Vector, h Handler) error {
	if v < FirstUsable {
		return fmt.Errorf("irq: vector %#x reserved for CPU exceptions", v)
	}
	c.handlers[v] = h
	return nil
}

// MSIWrite processes a (post-IOMMU-translation) memory write landing in the
// MSI address window. source is the TLP's requester ID. The low byte of the
// message data selects the vector (no remapping) or the remap table index
// (remapping enabled).
func (c *Controller) MSIWrite(source pci.BDF, addr mem.Addr, data []byte) {
	if len(data) == 0 {
		c.spurious++
		return
	}
	idx := data[0]
	if c.Remap != nil {
		e := c.Remap.Get(idx)
		if !e.Valid || e.Masked || e.Source != source {
			c.Remap.Blocked++
			return
		}
		c.deliver(e.Vector)
		return
	}
	// No remapping: the data byte is the vector; any requester that can
	// write the MSI window can raise any interrupt.
	c.deliver(Vector(idx))
}

func (c *Controller) deliver(v Vector) {
	c.counts[v]++
	c.trackStorm(v)
	if c.dispatchFn[v] == nil {
		c.dispatchFn[v] = func() { c.dispatch(v) }
	}
	c.loop.After(c.DeliveryLatency, c.dispatchFn[v])
}

// dispatch runs v's handler, as registered when the interrupt lands.
func (c *Controller) dispatch(v Vector) {
	h := c.handlers[v]
	if h == nil {
		c.spurious++
		return
	}
	h(v)
}

// Inject delivers an interrupt directly (used by legacy/internal sources and
// tests). It bypasses the remap table, as a CPU-internal interrupt would.
func (c *Controller) Inject(v Vector) { c.deliver(v) }

func (c *Controller) trackStorm(v Vector) {
	now := c.loop.Now()
	if now-c.windowStart[v] > c.StormWindow {
		c.windowStart[v] = now
		c.windowCount[v] = 0
		c.stormSignalled[v] = false
	}
	c.windowCount[v]++
	if c.windowCount[v] >= c.StormThreshold && !c.stormSignalled[v] {
		c.stormSignalled[v] = true
		if c.OnStorm != nil {
			c.OnStorm(v, c.windowCount[v])
		}
	}
}

// Count returns how many interrupts were delivered on vector v.
func (c *Controller) Count(v Vector) uint64 { return c.counts[v] }

// Spurious returns the number of interrupts with no registered handler.
func (c *Controller) Spurious() uint64 { return c.spurious }

// TotalDelivered sums deliveries across all vectors.
func (c *Controller) TotalDelivered() uint64 {
	var t uint64
	for _, n := range c.counts {
		t += n
	}
	return t
}

// VectorAllocator hands out device vectors. The kernel owns one.
type VectorAllocator struct {
	next Vector   // lowest never-allocated vector; 0 once all are handed out
	free []Vector // freed vectors, reused last-freed first
}

// NewVectorAllocator starts allocation at FirstUsable.
func NewVectorAllocator() *VectorAllocator { return &VectorAllocator{next: FirstUsable} }

// Alloc returns a free vector: the one freed last, or else the next one
// never handed out.
func (a *VectorAllocator) Alloc() (Vector, error) {
	if n := len(a.free); n > 0 {
		v := a.free[n-1]
		a.free = a.free[:n-1]
		return v, nil
	}
	if a.next == 0 { // wrapped
		return 0, fmt.Errorf("irq: out of interrupt vectors")
	}
	v := a.next
	a.next++
	return v, nil
}

// Free returns v, handed out by Alloc and since unregistered, for reuse.
func (a *VectorAllocator) Free(v Vector) { a.free = append(a.free, v) }

// HighWater returns how many distinct vectors have ever been handed out.
func (a *VectorAllocator) HighWater() int {
	if a.next == 0 {
		return 256 - int(FirstUsable)
	}
	return int(a.next - FirstUsable)
}
