package pci

import (
	"fmt"

	"sud/internal/mem"
)

// TLPType distinguishes memory read and write transactions. Config and IO
// transactions are CPU-initiated and modelled separately.
type TLPType int

const (
	// MemRead is a DMA read request (device reads host memory).
	MemRead TLPType = iota
	// MemWrite is a DMA write request (device writes host memory); MSIs
	// are MemWrites to the MSI address window.
	MemWrite
)

func (t TLPType) String() string {
	switch t {
	case MemRead:
		return "MemRead"
	case MemWrite:
		return "MemWrite"
	default:
		return fmt.Sprintf("TLPType(%d)", int(t))
	}
}

// TLP is a transaction-layer packet travelling the PCIe fabric.
type TLP struct {
	Type      TLPType
	Requester BDF      // stamped by the (trusted) device hardware
	Stream    int      // PASID-like queue tag, stamped by the issuing hardware queue engine; 0 = untagged
	Addr      mem.Addr // bus address (IO-virtual once an IOMMU is active)
	Data      []byte   // payload for MemWrite
	// Dst is a MemRead's destination: the requester's buffer, whose length
	// is the read length. The completer fills it in place, so the fabric
	// never allocates read data. On an abort Dst may hold a prefix of the
	// data (the pages before the failing one, as a partial DMA would).
	Dst []byte
}

// Completion is the fabric's response to a TLP. Read data is not carried
// here: a MemRead's completer fills the TLP's Dst.
type Completion struct {
	Err error // non-nil if the transaction aborted (UR/CA/IOMMU fault)
}

// OK reports whether the transaction completed successfully.
func (c Completion) OK() bool { return c.Err == nil }

// RouteError describes a TLP the fabric refused to deliver.
type RouteError struct {
	TLP    TLP
	Reason string
}

func (e *RouteError) Error() string {
	return fmt.Sprintf("pci: %s from %s to %#x: %s",
		e.TLP.Type, e.TLP.Requester, uint64(e.TLP.Addr), e.Reason)
}

// Port is the upstream path a device (or switch) uses to issue transactions
// toward the root complex.
type Port interface {
	// Upstream submits a TLP travelling toward the root and returns its
	// completion synchronously (PCIe is split-transaction; the model
	// collapses the round trip).
	Upstream(tlp TLP) Completion
}
