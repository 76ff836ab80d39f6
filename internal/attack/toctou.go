package attack

import (
	"fmt"

	"sud/internal/drivers/e1000e"
	"sud/internal/ethlink"
	"sud/internal/hw"
	"sud/internal/kernel"
	"sud/internal/kernel/netstack"
	"sud/internal/mem"
	"sud/internal/proxy/ethproxy"
	"sud/internal/sudml"
	"sud/internal/uchan"

	e1000dev "sud/internal/devices/e1000"
	pcipkg "sud/internal/pci"
)

// toctouRig is the shared machinery of the TOCTOU attack family: an honest
// e1000e driver process hosting the NIC (the "malicious driver" behaviour is
// injected at the uchan level), a firewall that admits only destination port
// 80, and sockets on 80 and on the firewalled port 6666 recording which one
// the payload actually reached.
type toctouRig struct {
	m    *hw.Machine
	k    *kernel.Kernel
	proc *sudml.Process
	ifc  *netstack.Iface

	deliveredTo []uint16
}

func newTOCTOURig() (*toctouRig, error) {
	r := &toctouRig{}
	r.m = hw.NewMachine(hw.DefaultPlatform())
	r.k = kernel.New(r.m)
	nic := e1000dev.New(r.m.Loop, pcipkg.MakeBDF(1, 0, 0), 0xFEB00000,
		[6]byte{2, 0, 0, 0, 0, 1}, e1000dev.DefaultParams())
	r.m.AttachDevice(nic)
	link := ethlink.NewGigabit(r.m.Loop, 300)
	link.Connect(nic, nopEnd{})
	nic.AttachLink(link, 0)

	// A well-behaved driver process hosts the device; the "malicious
	// driver" behaviour is injected at the uchan level by the attacks.
	var err error
	if r.proc, err = sudml.Start(r.k, nic, e1000e.New(), "e1000e", 1001); err != nil {
		return nil, err
	}
	if r.ifc, err = r.k.Net.Iface("eth0"); err != nil {
		return nil, err
	}
	if err := r.ifc.Up(netstack.IP{10, 0, 0, 1}); err != nil {
		return nil, err
	}

	// Firewall: allow only destination port 80.
	r.k.Net.Firewall = func(frame []byte) bool {
		_, ipPkt, err := netstack.ParseEth(frame)
		if err != nil {
			return false
		}
		ih, l4, err := netstack.ParseIPv4(ipPkt)
		if err != nil || ih.Proto != netstack.ProtoUDP {
			return false
		}
		uh, _, err := netstack.ParseUDP(ih.Src, ih.Dst, l4, false)
		return err == nil && uh.DstPort == 80
	}
	for _, port := range []uint16{80, 6666} {
		port := port
		if _, err := r.k.Net.UDPBind(port, func([]byte, netstack.IP, uint16) {
			r.deliveredTo = append(r.deliveredTo, port)
		}); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// frames builds the attack's packet pair: an innocuous-looking frame for the
// approved port 80, and its evil twin targeting the firewalled service
// (checksum fixed up by rebuilding).
func (r *toctouRig) frames() (innocent, evil []byte) {
	innocent = netstack.AppendUDPFrame(nil,
		netstack.MAC{2, 0, 0, 0, 0, 2}, r.ifc.MAC,
		netstack.IP{10, 0, 0, 2}, netstack.IP{10, 0, 0, 1}, 1234, 80, []byte("GET /"))
	evil = netstack.AppendUDPFrame(nil,
		netstack.MAC{2, 0, 0, 0, 0, 2}, r.ifc.MAC,
		netstack.IP{10, 0, 0, 2}, netstack.IP{10, 0, 0, 1}, 1234, 6666, []byte("GET /"))
	return innocent, evil
}

func (r *toctouRig) reachedBlocked() bool {
	for _, p := range r.deliveredTo {
		if p == 6666 {
			return true
		}
	}
	return false
}

// TOCTOU runs the paper's §3.1.2 shared-buffer attack: a malicious driver
// submits a packet that passes the firewall, then rewrites the shared buffer
// so the kernel consumes different bytes. With SUD's fused guard copy the
// attack fails; with the insecure zero-copy variant (guardMode
// ethproxy.GuardNone) it succeeds — which is exactly why the copy exists.
func TOCTOU(guardMode int) (Outcome, error) {
	r, err := newTOCTOURig()
	if err != nil {
		return Outcome{}, err
	}
	r.proc.Eth.GuardMode = guardMode

	// The malicious driver stages an innocuous-looking frame (dst port
	// 80) in its own DMA memory and downcalls netif_rx with a reference.
	innocent, evil := r.frames()
	alloc := r.proc.DF.Allocs()[0] // the shared TX pool doubles as scratch
	bufIOVA := alloc.IOVA
	bufPhys := alloc.Phys
	r.m.Mem.MustWrite(bufPhys, innocent)

	// The downcall is queued, and the buffer is rewritten *after* the
	// proxy handler runs for the no-guard case to matter; with no guard
	// the stack holds a live view, so any later read sees evil bytes.
	// Model the race by swapping the buffer between the firewall check
	// (inside Flush) and the socket consuming the payload: we swap
	// immediately after Flush returns, then deliverables are inspected.
	// To make the race visible even though our Flush is synchronous, the
	// firewall records approval and the app defers its read:
	var firewallApproved int
	innerFirewall := r.k.Net.Firewall
	r.k.Net.Firewall = func(frame []byte) bool {
		ok := innerFirewall(frame)
		if ok {
			firewallApproved++
			// The instant the firewall approves, the malicious driver
			// rewrites the shared buffer (it runs concurrently on
			// another core).
			r.m.Mem.MustWrite(bufPhys, evil)
		}
		return ok
	}

	if err := r.proc.Chan.Down(uchan.Msg{
		Op:   ethproxy.OpNetifRx,
		Args: [6]uint64{uint64(bufIOVA), uint64(len(innocent))},
	}); err != nil {
		return Outcome{}, err
	}
	r.proc.Chan.Flush()

	compromised := false
	detail := "guard copy held: payload immutable after firewall approval"
	if r.reachedBlocked() {
		compromised = true
		detail = "firewall bypassed: swapped packet reached the blocked service"
	}
	if firewallApproved == 0 {
		detail = "firewall never approved the innocent packet"
	}
	name := "TOCTOU via shared buffer"
	cfg := "SUD (fused guard copy)"
	if guardMode == ethproxy.GuardNone {
		cfg = "SUD without guard copy (insecure)"
	}
	return Outcome{Attack: name, Config: cfg, Compromised: compromised, Detail: detail}, nil
}

// TOCTOUPageFlip runs the same race against the zero-copy fast path: the
// malicious driver stages a fully slot-packed page of innocent frames, posts
// them as one batch (which GuardPageFlip revokes and delivers by reference,
// copying nothing), and rewrites the buffer the instant the firewall
// approves. The rewrite is modelled through the driver's legal access path —
// DriverTouch — so the defence is honest: the store faults because the
// process's mapping of the page is already gone, and the fault is recorded
// as evidence. The attack succeeds only if the swapped bytes reach the
// firewalled service, which would mean revocation left a writable window.
func TOCTOUPageFlip() (Outcome, error) {
	r, err := newTOCTOURig()
	if err != nil {
		return Outcome{}, err
	}
	r.proc.Eth.GuardMode = ethproxy.GuardPageFlip

	// Stage one innocent frame per RX slot so the batch fully tiles the
	// page — the precondition for the flip (anything less falls back to
	// the guard copy, which TOCTOU already covers).
	innocent, evil := r.frames()
	alloc := r.proc.DF.Allocs()[0] // one page, page-aligned by construction
	bufIOVA := alloc.IOVA
	bufPhys := alloc.Phys
	var refs []ethproxy.RxRef
	for off := 0; off < mem.PageSize; off += ethproxy.RxSlotSize {
		r.m.Mem.MustWrite(bufPhys+mem.Addr(off), innocent)
		refs = append(refs, ethproxy.RxRef{IOVA: uint64(bufIOVA) + uint64(off), Len: uint32(len(innocent))})
	}

	// The instant the firewall approves, the malicious driver stores the
	// evil twin through its shared mapping — if the store lands, the
	// kernel's by-reference view changes under it.
	var firewallApproved, storeFaults int
	innerFirewall := r.k.Net.Firewall
	r.k.Net.Firewall = func(frame []byte) bool {
		ok := innerFirewall(frame)
		if ok {
			firewallApproved++
			if phys, err := r.proc.DF.DriverTouch(bufIOVA, len(evil), true); err == nil {
				r.m.Mem.MustWrite(phys, evil)
			} else {
				storeFaults++
			}
		}
		return ok
	}

	if err := r.proc.Chan.Down(uchan.Msg{
		Op:   ethproxy.OpNetifRxBatch,
		Data: ethproxy.AppendRxBatch(nil, refs),
	}); err != nil {
		return Outcome{}, err
	}
	r.proc.Chan.Flush()

	// The harness must have exercised the fast path, or the verdict says
	// nothing about it.
	if r.proc.Eth.PagesFlipped == 0 {
		return Outcome{}, fmt.Errorf("attack: batch did not flip the page (flipped=0, badbatch=%d)", r.proc.Eth.RxBadBatch)
	}
	if firewallApproved == 0 {
		return Outcome{}, fmt.Errorf("attack: firewall never approved the innocent frames")
	}

	o := Outcome{Attack: "TOCTOU via shared buffer", Config: "SUD (page-flip zero copy)"}
	switch {
	case r.reachedBlocked():
		o.Compromised = true
		o.Detail = "page flip left a writable window: swapped packet reached the blocked service"
	case storeFaults == 0 || r.proc.DF.RevokedFaults == 0:
		o.Compromised = true
		o.Detail = "driver store to a flipped page did not fault — revocation is not being enforced"
	default:
		o.Detail = fmt.Sprintf("flip held: %d stores faulted on the revoked page, 0 bytes guard-copied for %d flipped page(s)",
			storeFaults, r.proc.Eth.PagesFlipped)
	}
	return o, nil
}

// TOCTOUAttack adapts the TOCTOU scenario to the matrix. A trusted in-kernel
// driver needs no race — it reads and writes kernel memory at will — so the
// baseline is compromised by construction; under SUD both guard flavours
// must hold: the fused copy on the standard path and page-flip revocation on
// the zero-copy path.
func TOCTOUAttack(cfg Config) (Outcome, error) {
	if cfg.Mode == InKernel {
		return Outcome{
			Attack:      "TOCTOU via shared buffer",
			Config:      cfg.Name,
			Compromised: true,
			Detail:      "trusted driver owns kernel memory; no race needed",
		}, nil
	}
	o, err := TOCTOU(ethproxy.GuardFused)
	if err != nil {
		return Outcome{}, err
	}
	flip, err := TOCTOUPageFlip()
	if err != nil {
		return Outcome{}, err
	}
	o.Config = cfg.Name
	if flip.Compromised {
		o.Compromised = true
		o.Detail = flip.Detail
	} else if !o.Compromised {
		o.Detail += "; " + flip.Detail
	}
	return o, nil
}

type nopEnd struct{}

func (nopEnd) LinkDeliver([]byte) {}
