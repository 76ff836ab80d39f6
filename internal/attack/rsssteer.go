package attack

import (
	"fmt"

	"sud/internal/devices/e1000"
	"sud/internal/drivers/e1000e"
	"sud/internal/ethlink"
	"sud/internal/hw"
	"sud/internal/kernel"
	"sud/internal/kernel/netstack"
	"sud/internal/pci"
	"sud/internal/sim"
	"sud/internal/sudml"
)

// rssQueues is the attacker NIC's RX/TX queue fan-out.
const rssQueues = 4

// RSSSteer is the receive-steering attack: a malicious driver rewrites its
// device's RSS redirection table — first with out-of-range ring indices,
// then steering every flow onto a single ring. The device register decode
// masks redirection entries to the valid ring range (reserved bits are
// hardwired to zero), so an out-of-range entry degrades to a valid ring
// instead of wild state; and because steering is scoped to the attacker's
// own device, collapsing it to one ring only throttles the attacker's own
// receive throughput — a sibling driver process on its own NIC keeps
// receiving. A trusted in-kernel driver has no such scoping: it can rewrite
// any steering state (or the stack itself) for any device.
func RSSSteer(cfg Config) (Outcome, error) {
	if cfg.Mode == InKernel {
		return Outcome{
			Attack:      "RSS steering rewrite",
			Config:      cfg.Name,
			Compromised: true,
			Detail:      "trusted driver: steering state of every device is writable kernel memory",
		}, nil
	}

	m := hw.NewMachine(cfg.Platform)
	k := kernel.New(m)

	// Attacker NIC: multi-queue, its own link and driver process.
	evilMAC := [6]byte{2, 0, 0, 0, 0xE, 1}
	nicA := e1000.New(m.Loop, pci.MakeBDF(1, 0, 0), 0xFEA00000, evilMAC, e1000.MultiQueueParams(rssQueues))
	m.AttachDevice(nicA)
	linkA := ethlink.NewGigabit(m.Loop, 300)
	peerA := &wirePeer{loop: m.Loop, link: linkA}
	linkA.Connect(nicA, peerA)
	nicA.AttachLink(linkA, 0)

	// Sibling NIC: an independent driver process on its own segment.
	sibMAC := [6]byte{2, 0, 0, 0, 0xE, 2}
	nicB := e1000.New(m.Loop, pci.MakeBDF(1, 1, 0), 0xFEB00000, sibMAC, e1000.DefaultParams())
	m.AttachDevice(nicB)
	linkB := ethlink.NewGigabit(m.Loop, 300)
	peerB := &wirePeer{loop: m.Loop, link: linkB}
	linkB.Connect(nicB, peerB)
	nicB.AttachLink(linkB, 0)

	procA, err := sudml.StartQ(k, nicA, e1000e.NewQ(rssQueues), "evil-e1000e", 1337, rssQueues)
	if err != nil {
		return Outcome{}, err
	}
	if _, err := sudml.Start(k, nicB, e1000e.New(), "sibling-e1000e", 1338); err != nil {
		return Outcome{}, err
	}
	ethA, err := k.Net.Iface("eth0")
	if err != nil {
		return Outcome{}, err
	}
	ethB, err := k.Net.Iface("eth1")
	if err != nil {
		return Outcome{}, err
	}
	ipA, ipB := netstack.IP{10, 8, 0, 1}, netstack.IP{10, 8, 1, 1}
	if err := ethA.Up(ipA); err != nil {
		return Outcome{}, err
	}
	if err := ethB.Up(ipB); err != nil {
		return Outcome{}, err
	}

	var gotA, gotB uint64
	if _, err := k.Net.UDPBind(7000, func([]byte, netstack.IP, uint16) { gotA++ }); err != nil {
		return Outcome{}, err
	}
	if _, err := k.Net.UDPBind(7001, func([]byte, netstack.IP, uint16) { gotB++ }); err != nil {
		return Outcome{}, err
	}
	m.Loop.RunFor(sim.Millisecond)

	// The malicious driver scribbles out-of-range ring indices over its
	// whole redirection table through its own MMIO mapping.
	mm, err := procA.DF.MapMMIO(0)
	if err != nil {
		return Outcome{}, err
	}
	for i := 0; i < e1000.RetaEntries; i++ {
		mm.Write32(e1000.RegRETA+uint64(4*i), 0xFFFFFFFF)
	}
	escaped := false
	for i := 0; i < e1000.RetaEntries; i++ {
		if mm.Read32(e1000.RegRETA+uint64(4*i)) >= rssQueues {
			escaped = true
		}
	}

	flows := func(peer *wirePeer, dstMAC [6]byte, dstIP netstack.IP, dport uint16) {
		for s := uint16(0); s < 4; s++ {
			f := netstack.AppendUDPFrame(nil, netstack.MAC{9, 9, 9, 9, 9, 9}, netstack.MAC(dstMAC),
				netstack.IP{10, 8, 9, 9}, dstIP, 41000+s, dport, make([]byte, 64))
			peer.flood(50, f, 10*sim.Microsecond)
		}
	}
	flows(peerA, evilMAC, ipA, 7000)
	flows(peerB, sibMAC, ipB, 7001)
	m.Loop.RunFor(5 * sim.Millisecond)
	phase1A, phase1B := gotA, gotB

	// Second phase: steer every flow onto ring 0 and flood again — the
	// classic "collapse receive parallelism" move.
	for i := 0; i < e1000.RetaEntries; i++ {
		mm.Write32(e1000.RegRETA+uint64(4*i), 0)
	}
	flows(peerA, evilMAC, ipA, 7000)
	flows(peerB, sibMAC, ipB, 7001)
	m.Loop.RunFor(5 * sim.Millisecond)
	phase2B := gotB - phase1B

	o := Outcome{Attack: "RSS steering rewrite", Config: cfg.Name}
	switch {
	case escaped:
		o.Compromised = true
		o.Detail = "out-of-range redirection entry survived the register decode"
	case phase1A == 0:
		o.Compromised = true
		o.Detail = "poisoned redirection table wedged the attacker's own receive path"
	case phase2B == 0:
		o.Compromised = true
		o.Detail = "sibling driver process starved by attacker's steering"
	default:
		o.Detail = fmt.Sprintf("entries clamped; attacker delivered %d, sibling %d then %d frames",
			phase1A, phase1B, phase2B)
	}
	return o, nil
}
