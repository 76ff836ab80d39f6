package attack

import (
	"bytes"
	"fmt"

	"sud/internal/devices/e1000"
	"sud/internal/ethlink"
	"sud/internal/hw"
	"sud/internal/kernel"
	"sud/internal/mem"
	"sud/internal/pci"
	"sud/internal/sim"
	"sud/internal/sudml"
)

// Mode selects how the malicious driver is hosted.
type Mode int

const (
	// InKernel is the Linux baseline: the malicious driver is trusted.
	InKernel Mode = iota
	// UnderSUD hosts the malicious driver in an untrusted process.
	UnderSUD
)

func (m Mode) String() string {
	if m == UnderSUD {
		return "SUD"
	}
	return "in-kernel"
}

// secretPattern is the kernel data the exfiltration attack tries to leak.
var secretPattern = []byte("SUD-KERNEL-SECRET-0123456789-SUD-KERNEL-SECRET-0123456789------")

// canaryByte fills the kernel integrity page.
const canaryByte = 0x5A

// wirePeer captures every frame the compromised NIC emits and can flood
// frames at it.
type wirePeer struct {
	loop     *sim.Loop
	link     *ethlink.Link
	captured [][]byte
}

func (p *wirePeer) LinkDeliver(f []byte) { p.captured = append(p.captured, bytes.Clone(f)) }

// flood schedules n raw frames at the DUT, spaced by interval.
func (p *wirePeer) flood(n int, frame []byte, interval sim.Duration) {
	for i := 0; i < n; i++ {
		p.loop.After(sim.Duration(i)*interval, func() {
			_ = p.link.Send(1, frame)
		})
	}
}

// sawSecret reports whether any captured frame contains the secret.
func (p *wirePeer) sawSecret() bool {
	for _, f := range p.captured {
		if bytes.Contains(f, secretPattern) {
			return true
		}
	}
	return false
}

// Rig is one attack testbed: machine, kernel, malicious driver on the
// primary NIC, a victim second device, a kernel canary page and a kernel
// secret page.
type Rig struct {
	Mode   Mode
	M      *hw.Machine
	K      *kernel.Kernel
	NIC    *e1000.NIC
	Victim *e1000.NIC
	Link   *ethlink.Link
	Peer   *wirePeer
	Evil   *EvilDriver
	Proc   *sudml.Process // nil for InKernel

	Canary mem.Addr
	Secret mem.Addr
}

// VictimBAR is the second device's register window.
const VictimBAR = 0xFEB40000

// victimScratch is a plain-storage register offset inside the victim's BAR
// used to detect peer-to-peer writes.
const victimScratch = 0x5800

// NewRig builds a rig for the given hosting mode and platform.
func NewRig(mode Mode, plat hw.Platform) (*Rig, error) {
	m := hw.NewMachine(plat)
	k := kernel.New(m)
	nic := e1000.New(m.Loop, pci.MakeBDF(1, 0, 0), 0xFEB00000,
		[6]byte{2, 0, 0, 0, 0, 1}, e1000.DefaultParams())
	m.AttachDevice(nic)
	victim := e1000.New(m.Loop, pci.MakeBDF(1, 1, 0), VictimBAR,
		[6]byte{2, 0, 0, 0, 0, 2}, e1000.DefaultParams())
	victim.Config().Write(pci.CfgCommand, 2, pci.CmdMemSpace)
	m.AttachDevice(victim)

	link := ethlink.NewGigabit(m.Loop, 300)
	peer := &wirePeer{loop: m.Loop, link: link}
	link.Connect(nic, peer)
	nic.AttachLink(link, 0)

	// Kernel canary and secret pages.
	canary, ok := m.Alloc.AllocPages(1)
	if !ok {
		return nil, fmt.Errorf("attack: out of memory")
	}
	m.Mem.MustWrite(canary, bytes.Repeat([]byte{canaryByte}, mem.PageSize))
	secret, ok := m.Alloc.AllocPages(1)
	if !ok {
		return nil, fmt.Errorf("attack: out of memory")
	}
	m.Mem.MustWrite(secret, secretPattern)

	r := &Rig{
		Mode: mode, M: m, K: k, NIC: nic, Victim: victim,
		Link: link, Peer: peer, Evil: NewEvil(),
		Canary: canary, Secret: secret,
	}
	switch mode {
	case InKernel:
		if _, err := k.BindInKernel(r.Evil, nic); err != nil {
			return nil, err
		}
	case UnderSUD:
		proc, err := sudml.Start(k, nic, r.Evil, "evil", 1337)
		if err != nil {
			return nil, err
		}
		r.Proc = proc
	}
	return r, nil
}

// CanaryIntact re-reads the canary page.
func (r *Rig) CanaryIntact() bool {
	buf := make([]byte, mem.PageSize)
	if err := r.M.Mem.Read(r.Canary, buf); err != nil {
		return false
	}
	for _, b := range buf {
		if b != canaryByte {
			return false
		}
	}
	return true
}

// VictimScratch reads the victim device's scratch register.
func (r *Rig) VictimScratch() uint32 {
	return uint32(r.Victim.MMIORead(0, victimScratch, 4))
}

// EvilVector returns the interrupt vector the host assigned to the evil
// driver (readable through filtered config space — reads are harmless).
func (r *Rig) EvilVector() (uint8, error) {
	inst := r.Evil.Instance()
	capOff := inst.env.FindCapability(pci.CapIDMSI)
	if capOff == 0 {
		return 0, fmt.Errorf("attack: no MSI capability")
	}
	data, err := inst.env.ConfigRead(capOff+8, 2)
	if err != nil {
		return 0, err
	}
	return uint8(data), nil
}
