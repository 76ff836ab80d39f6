package ne2kpci

import (
	"bytes"
	"testing"

	"sud/internal/devices/ne2k"
	"sud/internal/drivers/api"
	"sud/internal/ethlink"
	"sud/internal/hw"
	"sud/internal/kernel"
	"sud/internal/kernel/netstack"
	"sud/internal/pci"
	"sud/internal/sim"
	"sud/internal/sudml"
)

var (
	cardMAC = [6]byte{0x00, 0x40, 0x05, 0x11, 0x22, 0x33}
	peerMAC = netstack.MAC{0x00, 0x40, 0x05, 0x44, 0x55, 0x66}
	cardIP  = netstack.IP{10, 0, 1, 1}
	peerIP  = netstack.IP{10, 0, 1, 2}
)

type capturePeer struct {
	loop *sim.Loop
	link *ethlink.Link
	seen [][]byte
}

func (p *capturePeer) LinkDeliver(f []byte) { p.seen = append(p.seen, bytes.Clone(f)) }

type world struct {
	m    *hw.Machine
	k    *kernel.Kernel
	card *ne2k.Card
	peer *capturePeer
	link *ethlink.Link
	ifc  *netstack.Iface
	proc *sudml.Process
}

func boot(t *testing.T, underSUD bool) *world {
	t.Helper()
	m := hw.NewMachine(hw.DefaultPlatform())
	k := kernel.New(m)
	card := ne2k.New(m.Loop, pci.MakeBDF(1, 0, 0), 0xC000, cardMAC)
	m.AttachDevice(card)
	link := ethlink.NewGigabit(m.Loop, 300)
	peer := &capturePeer{loop: m.Loop, link: link}
	link.Connect(card, peer)
	card.AttachLink(link, 0)

	w := &world{m: m, k: k, card: card, peer: peer, link: link}
	if underSUD {
		proc, err := sudml.Start(k, card, New(), "ne2k-pci", 1001)
		if err != nil {
			t.Fatal(err)
		}
		w.proc = proc
	} else {
		if _, err := k.BindInKernel(New(), card); err != nil {
			t.Fatal(err)
		}
	}
	ifc, err := k.Net.Iface("eth0")
	if err != nil {
		t.Fatal(err)
	}
	if err := ifc.Up(cardIP); err != nil {
		t.Fatal(err)
	}
	w.ifc = ifc
	return w
}

func hosts(t *testing.T, f func(t *testing.T, w *world)) {
	t.Run("in-kernel", func(t *testing.T) { f(t, boot(t, false)) })
	t.Run("under-SUD", func(t *testing.T) { f(t, boot(t, true)) })
}

func TestPROMMACRead(t *testing.T) {
	hosts(t, func(t *testing.T, w *world) {
		if w.ifc.MAC != netstack.MAC(cardMAC) {
			t.Fatalf("MAC %v, want %v", w.ifc.MAC, netstack.MAC(cardMAC))
		}
	})
}

func TestPIOTransmit(t *testing.T) {
	hosts(t, func(t *testing.T, w *world) {
		payload := bytes.Repeat([]byte{0x77}, 120)
		if err := w.k.Net.UDPSendTo(w.ifc, peerMAC, peerIP, 1000, 2000, payload); err != nil {
			t.Fatal(err)
		}
		w.m.Loop.RunFor(2 * sim.Millisecond)
		if len(w.peer.seen) != 1 {
			t.Fatalf("wire saw %d frames", len(w.peer.seen))
		}
		_, ipPkt, _ := netstack.ParseEth(w.peer.seen[0])
		ih, l4, err := netstack.ParseIPv4(ipPkt)
		if err != nil {
			t.Fatal(err)
		}
		if _, got, err := netstack.ParseUDP(ih.Src, ih.Dst, l4, true); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("PIO transmit corrupted payload: %v", err)
		}
	})
}

func TestPIOReceive(t *testing.T) {
	hosts(t, func(t *testing.T, w *world) {
		var got []byte
		if _, err := w.k.Net.UDPBind(7777, func(p []byte, _ netstack.IP, _ uint16) {
			got = append([]byte(nil), p...)
		}); err != nil {
			t.Fatal(err)
		}
		payload := []byte("through the SRAM ring")
		f := netstack.AppendUDPFrame(nil, peerMAC, netstack.MAC(cardMAC), peerIP, cardIP, 1, 7777, payload)
		if err := w.link.Send(1, f); err != nil {
			t.Fatal(err)
		}
		w.m.Loop.RunFor(2 * sim.Millisecond)
		if !bytes.Equal(got, payload) {
			t.Fatalf("received %q", got)
		}
	})
}

func TestRingWrapsManyPackets(t *testing.T) {
	hosts(t, func(t *testing.T, w *world) {
		var count int
		if _, err := w.k.Net.UDPBind(7777, func(p []byte, _ netstack.IP, _ uint16) {
			count++
		}); err != nil {
			t.Fatal(err)
		}
		// 120 frames of ~1 KiB: several times around the 58-page ring.
		payload := bytes.Repeat([]byte{0xA5}, 1000)
		for i := 0; i < 120; i++ {
			f := netstack.AppendUDPFrame(nil, peerMAC, netstack.MAC(cardMAC), peerIP, cardIP, 1, 7777, payload)
			w.m.Loop.After(sim.Duration(i)*200*sim.Microsecond, func() { _ = w.link.Send(1, f) })
		}
		w.m.Loop.RunFor(60 * sim.Millisecond)
		if count != 120 {
			t.Fatalf("app received %d/120 datagrams (card drops: %d)", count, w.card.RxDrops)
		}
	})
}

func TestNoDriverDMAMappingsUnderSUD(t *testing.T) {
	// The NE2000 never masters the bus and its driver allocates no DMA
	// memory; the only mapping in its translation state is the proxy's
	// uchan TX slot pool, held in queue 0's sub-domain. Pure IOPB
	// confinement otherwise (§3.2.1).
	w := boot(t, true)
	allocs := w.proc.DF.Allocs()
	if len(allocs) != 1 || allocs[0].Label != "TX q0 slot pool" {
		t.Fatalf("unexpected DMA allocations: %+v", allocs)
	}
	mapped := 0
	for _, mp := range w.proc.DF.Mappings() {
		mapped += int(mp.End - mp.IOVA)
	}
	if mapped != allocs[0].Pages*4096 {
		t.Fatalf("walk shows %d mapped bytes, want only the %d-page slot pool", mapped, allocs[0].Pages)
	}
	// And the device genuinely cannot DMA.
	if err := w.card.DMAWrite(hw.DRAMBase, []byte{1}); err == nil {
		t.Fatal("NE2000 DMA succeeded?!")
	}
}

func TestIoctlAndStop(t *testing.T) {
	hosts(t, func(t *testing.T, w *world) {
		out, err := w.ifc.Ioctl(api.IoctlGetMIIStatus, nil)
		if err != nil || out[0] != 1 {
			t.Fatalf("ioctl: %v %v", out, err)
		}
		if err := w.ifc.Down(); err != nil {
			t.Fatal(err)
		}
		if err := w.k.Net.UDPSendTo(w.ifc, peerMAC, peerIP, 1, 2, []byte("x")); err == nil {
			t.Fatal("send on downed ne2k succeeded")
		}
	})
}
