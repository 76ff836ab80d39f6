// Packet-filter: the paper's §6 "Applications" use case. The Click modular
// router runs as a kernel module "so that it has direct access to packets as
// they are received by the network card. With SUD, these applications could
// run as untrusted SUD-UML driver processes, with direct access to hardware,
// and achieve good performance without the security threat."
//
// This example is such an application: not a Linux driver at all, but a
// user-space process that is handed the e1000's device files and programs
// the RX ring itself, counting and classifying frames straight off the
// hardware — while the IOMMU confines it exactly like any driver process.
package main

import (
	"fmt"
	"log"

	"sud/internal/devices/e1000"
	"sud/internal/ethlink"
	"sud/internal/hw"
	"sud/internal/kernel"
	"sud/internal/kernel/netstack"
	"sud/internal/mem"
	"sud/internal/pci"
	"sud/internal/proxy/pciaccess"
	"sud/internal/sim"
)

const ringLen = 64

func main() {
	m := hw.NewMachine(hw.DefaultPlatform())
	k := kernel.New(m)
	nic := e1000.New(m.Loop, pci.MakeBDF(1, 0, 0), 0xFEB00000,
		[6]byte{2, 0, 0, 0, 0, 1}, e1000.DefaultParams())
	m.AttachDevice(nic)
	link := ethlink.NewGigabit(m.Loop, 300)
	link.Connect(nic, sink{})
	nic.AttachLink(link, 0)

	// The administrator hands this application the device files — the
	// same confinement surface a driver process gets.
	acct := m.CPU.Account("app:packet-filter")
	df := pciaccess.Open(k, nic, 2001, acct)

	// The application's own minimal datapath: enable the device, map its
	// registers, build an RX ring in its own DMA memory.
	if err := df.ConfigWrite(pci.CfgCommand, 2, pci.CmdMemSpace|pci.CmdBusMaster); err != nil {
		log.Fatal(err)
	}
	mmio, err := df.MapMMIO(0)
	if err != nil {
		log.Fatal(err)
	}
	ring, err := df.AllocDMA(ringLen*e1000.DescSize, "app RX ring", true)
	if err != nil {
		log.Fatal(err)
	}
	bufs, err := df.AllocDMA(ringLen*2048, "app RX buffers", false)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < ringLen; i++ {
		var d [e1000.DescSize]byte
		addr := uint64(bufs.IOVA) + uint64(i*2048)
		for b := 0; b < 8; b++ {
			d[b] = byte(addr >> (8 * b))
		}
		m.Mem.MustWrite(ring.Phys+mem.Addr(i*e1000.DescSize), d[:])
	}
	mmio.Write32(e1000.RegCTRL, e1000.CtrlSLU)
	mmio.Write32(e1000.RegRDBAL, uint32(ring.IOVA))
	mmio.Write32(e1000.RegRDLEN, ringLen*e1000.DescSize)
	mmio.Write32(e1000.RegRDH, 0)
	mmio.Write32(e1000.RegRDT, ringLen-1)
	mmio.Write32(e1000.RegRCTL, e1000.RctlEN)

	// Poll-mode packet processing (Click style): classify UDP vs other.
	var udp, other, bytes int
	next := uint32(0)
	poll := func() {
		for {
			desc := make([]byte, e1000.DescSize)
			m.Mem.MustRead(ring.Phys+mem.Addr(next*e1000.DescSize), desc)
			if desc[12]&e1000.RxStaDD == 0 {
				return
			}
			n := int(desc[8]) | int(desc[9])<<8
			frame := make([]byte, n)
			m.Mem.MustRead(bufs.Phys+mem.Addr(next*2048), frame)
			bytes += n
			if _, ipPkt, err := netstack.ParseEth(frame); err == nil {
				if ih, _, err := netstack.ParseIPv4(ipPkt); err == nil && ih.Proto == netstack.ProtoUDP {
					udp++
				} else {
					other++
				}
			} else {
				other++
			}
			desc[12] = 0
			m.Mem.MustWrite(ring.Phys+mem.Addr(next*e1000.DescSize), desc)
			mmio.Write32(e1000.RegRDT, next)
			next = (next + 1) % ringLen
		}
	}
	var tick func()
	tick = func() { poll(); m.Loop.After(20*sim.Microsecond, tick) }
	tick()

	// Traffic: 300 mixed frames from the wire.
	src := netstack.MAC{2, 0, 0, 0, 0, 2}
	dst := netstack.MAC{2, 0, 0, 0, 0, 1}
	for i := 0; i < 300; i++ {
		var f []byte
		if i%3 == 0 {
			f = netstack.AppendTCPFrame(nil, src, dst, netstack.IP{10, 0, 0, 2}, netstack.IP{10, 0, 0, 1},
				netstack.TCPHeader{SrcPort: 1, DstPort: 2, Flags: netstack.TCPAck}, make([]byte, 100))
		} else {
			f = netstack.AppendUDPFrame(nil, src, dst, netstack.IP{10, 0, 0, 2}, netstack.IP{10, 0, 0, 1},
				1, 2, make([]byte, 100))
		}
		m.Loop.After(sim.Duration(i)*30*sim.Microsecond, func() { _ = link.Send(1, f) })
	}
	m.Loop.RunFor(20 * sim.Millisecond)

	fmt.Printf("packet-filter app (uid 2001, direct hardware access):\n")
	fmt.Printf("  classified %d UDP + %d other frames, %d bytes total\n", udp, other, bytes)
	fmt.Printf("  app CPU: %v; IOMMU confinement: %d pages, %d faults\n",
		sim.Time(acct.Busy()), df.Dom.Pages(), len(m.IOMMU.Faults()))
	fmt.Printf("  device RX drops (ring kept full by the app): %d\n", nic.RxDropsNoDesc)
}

type sink struct{}

func (sink) LinkDeliver([]byte) {}
