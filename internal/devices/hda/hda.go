// Package hda models an Intel HD Audio-class sound device: a single PCM
// playback stream whose engine DMA-reads sample periods from a ring buffer
// in (driver-owned) memory at the configured rate and raises an interrupt
// per period. The snd-hda driver in internal/drivers/sndhda programs it like
// the snd_hda_intel driver programs real hardware (§4: sound cards were one
// of SUD's supported classes; §4.1 notes they may need real-time
// scheduling).
package hda

import (
	"sud/internal/mem"
	"sud/internal/pci"
	"sud/internal/sim"
)

// Register offsets (BAR0).
const (
	RegCtl         = 0x00 // bit0 RUN, bit1 interrupt enable
	RegBufLo       = 0x04
	RegBufHi       = 0x08
	RegBufLen      = 0x0C // ring size in bytes
	RegPeriodBytes = 0x10
	RegRate        = 0x14 // sample rate in Hz
	RegPos         = 0x18 // read-only: current playback byte position
	RegIntStatus   = 0x1C // read-to-clear: bit0 period elapsed

	// BARSize is BAR0's size.
	BARSize = 0x1000
)

// Ctl bits.
const (
	CtlRun = 1 << 0
	CtlIE  = 1 << 1
)

// Interrupt status bits.
const (
	IntPeriod = 1 << 0
)

// BytesPerFrame is 16-bit stereo.
const BytesPerFrame = 4

// Codec is the sound device.
type Codec struct {
	pci.FuncBase
	loop *sim.Loop

	regs map[uint64]uint32
	pos  uint32

	running bool
	tick    sim.Event // fires consumePeriod once per period while running

	// Played collects every sample byte the "speaker" consumed, so
	// tests can verify bit-exact playback through either host.
	Played []byte

	// Counters.
	Periods   uint64
	DMAFaults uint64
}

// New creates the codec (IDs match an ICH9 HD Audio function).
func New(loop *sim.Loop, bdf pci.BDF, barBase uint64) *Codec {
	c := &Codec{loop: loop, regs: make(map[uint64]uint32)}
	c.tick.Fn = c.consumePeriod
	cfg := pci.NewConfigSpace(0x8086, 0x293E, 0x04)
	cfg.SetBAR(0, barBase, BARSize, false)
	cfg.AddMSICapability()
	cfg.OnMSIChange = func() {
		if !cfg.MSI().Masked && c.regs[RegIntStatus] != 0 && c.regs[RegCtl]&CtlIE != 0 {
			c.RaiseMSI()
		}
	}
	c.InitFunc(bdf, cfg)
	return c
}

// MMIORead implements pci.Device.
func (c *Codec) MMIORead(bar int, off uint64, size int) uint64 {
	switch off {
	case RegPos:
		return uint64(c.pos)
	case RegIntStatus:
		v := c.regs[RegIntStatus]
		c.regs[RegIntStatus] = 0
		return uint64(v)
	default:
		return uint64(c.regs[off])
	}
}

// MMIOWrite implements pci.Device.
func (c *Codec) MMIOWrite(bar int, off uint64, size int, v uint64) {
	val := uint32(v)
	switch off {
	case RegCtl:
		was := c.regs[RegCtl]
		c.regs[RegCtl] = val
		if val&CtlRun != 0 && was&CtlRun == 0 {
			c.start()
		} else if val&CtlRun == 0 && was&CtlRun != 0 {
			c.stop()
		}
	default:
		c.regs[off] = val
	}
}

// IORead/IOWrite: no IO BAR.
func (c *Codec) IORead(bar int, off uint64, size int) uint32     { return 0xFFFFFFFF }
func (c *Codec) IOWrite(bar int, off uint64, size int, v uint32) {}

func (c *Codec) periodTime() sim.Duration {
	rate := c.regs[RegRate]
	pb := c.regs[RegPeriodBytes]
	if rate == 0 || pb == 0 {
		return 0
	}
	return sim.Duration(uint64(pb) * uint64(sim.Second) / (uint64(rate) * BytesPerFrame))
}

func (c *Codec) start() {
	if c.running || c.periodTime() == 0 {
		return
	}
	c.running = true
	c.pos = 0
	c.loop.ArmAfter(&c.tick, c.periodTime())
}

func (c *Codec) stop() {
	c.running = false
	c.loop.Cancel(&c.tick)
}

// consumePeriod DMA-reads one period from the ring and "plays" it.
func (c *Codec) consumePeriod() {
	if !c.running {
		return
	}
	pb := c.regs[RegPeriodBytes]
	buflen := c.regs[RegBufLen]
	base := mem.Addr(uint64(c.regs[RegBufHi])<<32 | uint64(c.regs[RegBufLo]))
	data := make([]byte, pb)
	if err := c.DMAReadInto(base+mem.Addr(c.pos), data); err != nil {
		c.DMAFaults++
	} else {
		c.Played = append(c.Played, data...)
	}
	c.pos = (c.pos + pb) % buflen
	c.Periods++
	c.regs[RegIntStatus] |= IntPeriod
	if c.regs[RegCtl]&CtlIE != 0 {
		c.RaiseMSI()
	}
	c.loop.ArmAfter(&c.tick, c.periodTime())
}
