package pci

import (
	"fmt"

	"sud/internal/mem"
)

// ACS holds the Access Control Services settings of a PCI express switch
// (§3.2.2). With both features enabled, every DMA request is forced through
// the root complex (and hence the IOMMU), and devices cannot spoof requester
// IDs — the two properties SUD needs to stop peer-to-peer DMA attacks.
type ACS struct {
	// SourceValidation drops TLPs whose requester ID does not belong to
	// the downstream port they arrived on.
	SourceValidation bool
	// P2PRedirect forwards peer-to-peer requests upstream to the root
	// instead of routing them directly between downstream ports.
	P2PRedirect bool
}

// UpstreamHandler terminates TLPs at the root complex. The hw package
// implements it with IOMMU translation + DRAM + the MSI window.
type UpstreamHandler interface {
	HandleUpstream(tlp TLP) Completion
}

// Switch is a PCI express switch (or, with Legacy set, a conventional shared
// PCI bus where peer-to-peer traffic cannot be filtered at all).
type Switch struct {
	Name   string
	ACS    ACS
	Legacy bool // conventional PCI: P2P is wired into the bus, ACS impossible

	parent Port // toward the root; nil for the switch directly under the root
	ports  []*downPort

	// DroppedTLPs counts TLPs discarded by source validation.
	DroppedTLPs uint64
}

type downPort struct {
	sw    *Switch
	dev   Device
	child *Switch
}

// Upstream implements Port for a child switch: TLPs from the child arrive at
// this switch as if from a downstream port.
func (p *downPort) Upstream(tlp TLP) Completion {
	return p.sw.fromDownstream(p, tlp)
}

// NewSwitch returns a switch with the given ACS settings.
func NewSwitch(name string, acs ACS) *Switch {
	return &Switch{Name: name, ACS: acs}
}

// AttachDevice plugs dev into a new downstream port.
func (s *Switch) AttachDevice(dev Device) {
	p := &downPort{sw: s, dev: dev}
	s.ports = append(s.ports, p)
	dev.Attach(p)
}

// AttachSwitch plugs child into a new downstream port.
func (s *Switch) AttachSwitch(child *Switch) {
	p := &downPort{sw: s, child: child}
	s.ports = append(s.ports, p)
	child.parent = p
}

// Devices returns the devices below this switch, depth-first.
func (s *Switch) Devices() []Device {
	var out []Device
	for _, p := range s.ports {
		if p.dev != nil {
			out = append(out, p.dev)
		}
		if p.child != nil {
			out = append(out, p.child.Devices()...)
		}
	}
	return out
}

// portOwns reports whether requester is a valid source for TLPs arriving on
// port p (the device on p, or any device below p's child switch). It runs
// on every TLP, so it walks the ports in place rather than collecting
// Devices().
func portOwns(p *downPort, requester BDF) bool {
	if p.dev != nil {
		return p.dev.BDF() == requester
	}
	if p.child != nil {
		return p.child.deviceByBDF(requester) != nil
	}
	return false
}

// deviceByBDF finds the device at bdf below s, depth-first, without
// allocating.
func (s *Switch) deviceByBDF(bdf BDF) Device {
	for _, p := range s.ports {
		if p.dev != nil && p.dev.BDF() == bdf {
			return p.dev
		}
		if p.child != nil {
			if d := p.child.deviceByBDF(bdf); d != nil {
				return d
			}
		}
	}
	return nil
}

// findMMIO finds the device and memory BAR below s that contain addr,
// depth-first, without allocating.
func (s *Switch) findMMIO(addr mem.Addr) (dev Device, bar int, off uint64, ok bool) {
	for _, p := range s.ports {
		if p.dev != nil {
			if b, o, found := barContaining(p.dev, addr); found {
				return p.dev, b, o, true
			}
		}
		if p.child != nil {
			if dev, bar, off, ok = p.child.findMMIO(addr); ok {
				return dev, bar, off, true
			}
		}
	}
	return nil, 0, 0, false
}

// fromDownstream routes a TLP that arrived from downstream port src.
func (s *Switch) fromDownstream(src *downPort, tlp TLP) Completion {
	// ACS source validation (meaningless on legacy shared buses).
	if !s.Legacy && s.ACS.SourceValidation && !portOwns(src, tlp.Requester) {
		s.DroppedTLPs++
		return Completion{Err: &RouteError{TLP: tlp, Reason: "ACS source validation: spoofed requester ID"}}
	}

	// Peer-to-peer routing: on a legacy bus, or on a PCIe switch without
	// P2P redirection, a TLP whose address falls inside a peer device's
	// BAR is delivered directly — bypassing the IOMMU. This is the attack
	// §3.2.2 closes with ACS.
	direct := s.Legacy || !s.ACS.P2PRedirect
	if direct {
		for _, p := range s.ports {
			if p == src {
				continue
			}
			if p.dev != nil {
				if bar, off, ok := barContaining(p.dev, tlp.Addr); ok {
					return deliverMMIO(p.dev, bar, off, tlp)
				}
			}
		}
	}

	if s.parent == nil {
		return Completion{Err: &RouteError{TLP: tlp, Reason: "no upstream port"}}
	}
	return s.parent.Upstream(tlp)
}

// barContaining locates the memory BAR of dev that contains addr.
func barContaining(dev Device, addr mem.Addr) (bar int, off uint64, ok bool) {
	cfg := dev.Config()
	if cfg.Read(CfgCommand, 2)&CmdMemSpace == 0 {
		return 0, 0, false
	}
	for i := 0; i < 6; i++ {
		base, info := cfg.BAR(i)
		if info.Size == 0 || info.IO || base == 0 {
			continue
		}
		if uint64(addr) >= base && uint64(addr) < base+info.Size {
			return i, uint64(addr) - base, true
		}
	}
	return 0, 0, false
}

// DeliverMMIO turns a routed TLP into register accesses on the target
// device. Peer-to-peer writes hit device registers just like CPU MMIO. The
// root complex also uses it for ACS-redirected P2P traffic the IOMMU permits.
func DeliverMMIO(dev Device, bar int, off uint64, tlp TLP) Completion {
	return deliverMMIO(dev, bar, off, tlp)
}

func deliverMMIO(dev Device, bar int, off uint64, tlp TLP) Completion {
	switch tlp.Type {
	case MemWrite:
		// Deliver in 4-byte chunks, as the fabric would.
		for i := 0; i < len(tlp.Data); i += 4 {
			n := 4
			if i+n > len(tlp.Data) {
				n = len(tlp.Data) - i
			}
			var v uint64
			for j := n - 1; j >= 0; j-- {
				v = v<<8 | uint64(tlp.Data[i+j])
			}
			dev.MMIOWrite(bar, off+uint64(i), n, v)
		}
		return Completion{}
	case MemRead:
		out := tlp.Dst
		for i := 0; i < len(out); i += 4 {
			n := 4
			if i+n > len(out) {
				n = len(out) - i
			}
			v := dev.MMIORead(bar, off+uint64(i), n)
			for j := 0; j < n; j++ {
				out[i+j] = byte(v >> (8 * j))
			}
		}
		return Completion{}
	default:
		return Completion{Err: &RouteError{TLP: tlp, Reason: "unsupported TLP type"}}
	}
}

// RootComplex is the top of the fabric. Every TLP that reaches it is handed
// to the platform's UpstreamHandler (IOMMU + DRAM + MSI window).
type RootComplex struct {
	Handler UpstreamHandler
	root    *Switch
}

// NewRootComplex builds a root complex with the given root switch and
// handler.
func NewRootComplex(root *Switch, h UpstreamHandler) *RootComplex {
	rc := &RootComplex{Handler: h, root: root}
	root.parent = rootPort{rc}
	return rc
}

type rootPort struct{ rc *RootComplex }

func (p rootPort) Upstream(tlp TLP) Completion {
	if p.rc.Handler == nil {
		return Completion{Err: &RouteError{TLP: tlp, Reason: "no upstream handler"}}
	}
	return p.rc.Handler.HandleUpstream(tlp)
}

// Devices enumerates every device in the fabric.
func (rc *RootComplex) Devices() []Device { return rc.root.Devices() }

// DeviceByBDF finds a device by its address.
func (rc *RootComplex) DeviceByBDF(bdf BDF) (Device, error) {
	if d := rc.root.deviceByBDF(bdf); d != nil {
		return d, nil
	}
	return nil, fmt.Errorf("pci: no device at %s", bdf)
}

// FindMMIO locates the device and BAR containing physical address addr, for
// CPU-initiated MMIO dispatch and for every DMA the root complex resolves
// (redirected P2P check), so it does not allocate.
func (rc *RootComplex) FindMMIO(addr mem.Addr) (dev Device, bar int, off uint64, ok bool) {
	return rc.root.findMMIO(addr)
}

// ConfigRead performs a CPU-initiated config read.
func (rc *RootComplex) ConfigRead(bdf BDF, off, size int) (uint32, error) {
	d, err := rc.DeviceByBDF(bdf)
	if err != nil {
		return 0xFFFFFFFF, err
	}
	return d.Config().Read(off, size), nil
}

// ConfigWrite performs a CPU-initiated config write.
func (rc *RootComplex) ConfigWrite(bdf BDF, off, size int, v uint32) error {
	d, err := rc.DeviceByBDF(bdf)
	if err != nil {
		return err
	}
	d.Config().Write(off, size, v)
	return nil
}
