package ne2k

import (
	"bytes"
	"testing"

	"sud/internal/ethlink"
	"sud/internal/pci"
	"sud/internal/sim"
)

type sink struct{ frames [][]byte }

func (s *sink) LinkDeliver(f []byte) { s.frames = append(s.frames, bytes.Clone(f)) }

func rig(t *testing.T) (*sim.Loop, *Card, *ethlink.Link, *sink) {
	t.Helper()
	loop := sim.NewLoop()
	c := New(loop, pci.MakeBDF(1, 0, 0), 0xC000, [6]byte{1, 2, 3, 4, 5, 6})
	link := ethlink.NewGigabit(loop, 0)
	peer := &sink{}
	link.Connect(c, peer)
	c.AttachLink(link, 0)
	return loop, c, link, peer
}

func TestPROMDoubledBytes(t *testing.T) {
	_, c, _, _ := rig(t)
	// Remote-DMA read of the PROM: each MAC byte appears twice.
	c.IOWrite(0, PortRSAR0, 1, 0)
	c.IOWrite(0, PortRSAR1, 1, 0)
	c.IOWrite(0, PortRBCR0, 1, 12)
	c.IOWrite(0, PortRBCR1, 1, 0)
	c.IOWrite(0, PortCmd, 1, CmdStart|CmdRRead)
	for i := 0; i < 6; i++ {
		a := uint8(c.IORead(0, PortData, 1))
		b := uint8(c.IORead(0, PortData, 1))
		if a != b || a != c.MAC()[i] {
			t.Fatalf("PROM byte %d: %d/%d want %d", i, a, b, c.MAC()[i])
		}
	}
	// Beyond the byte count the window reads all-ones.
	if uint8(c.IORead(0, PortData, 1)) != 0xFF {
		t.Fatal("exhausted remote DMA window not all-ones")
	}
}

func TestSRAMRemoteDMARoundTrip(t *testing.T) {
	_, c, _, _ := rig(t)
	data := []byte("ne2000 packet sram")
	c.IOWrite(0, PortRSAR0, 1, 0x00)
	c.IOWrite(0, PortRSAR1, 1, 0x40) // SRAMBase
	c.IOWrite(0, PortRBCR0, 1, uint32(len(data)))
	c.IOWrite(0, PortRBCR1, 1, 0)
	c.IOWrite(0, PortCmd, 1, CmdStart|CmdRWrite)
	for _, b := range data {
		c.IOWrite(0, PortData, 1, uint32(b))
	}
	c.IOWrite(0, PortRSAR0, 1, 0x00)
	c.IOWrite(0, PortRSAR1, 1, 0x40)
	c.IOWrite(0, PortRBCR0, 1, uint32(len(data)))
	c.IOWrite(0, PortRBCR1, 1, 0)
	c.IOWrite(0, PortCmd, 1, CmdStart|CmdRRead)
	got := make([]byte, len(data))
	for i := range got {
		got[i] = uint8(c.IORead(0, PortData, 1))
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("SRAM round trip %q", got)
	}
}

func TestTransmitFromSRAM(t *testing.T) {
	loop, c, _, peer := rig(t)
	frame := bytes.Repeat([]byte{0x5C}, 80)
	// Write the frame at page 0x40 and trigger TX.
	c.IOWrite(0, PortRSAR0, 1, 0)
	c.IOWrite(0, PortRSAR1, 1, 0x40)
	c.IOWrite(0, PortRBCR0, 1, uint32(len(frame)))
	c.IOWrite(0, PortRBCR1, 1, 0)
	c.IOWrite(0, PortCmd, 1, CmdStart|CmdRWrite)
	for _, b := range frame {
		c.IOWrite(0, PortData, 1, uint32(b))
	}
	c.IOWrite(0, PortTPSR, 1, 0x40)
	c.IOWrite(0, PortTBCR0, 1, uint32(len(frame)))
	c.IOWrite(0, PortTBCR1, 1, 0)
	c.IOWrite(0, PortCmd, 1, CmdStart|CmdTXP)
	loop.Run()
	if len(peer.frames) != 1 || !bytes.Equal(peer.frames[0], frame) {
		t.Fatalf("wire saw %d frames", len(peer.frames))
	}
	if uint8(c.IORead(0, PortISR, 1))&IsrPTX == 0 {
		t.Fatal("PTX not latched")
	}
}

// TestTransmitBusyTimeSerialises pins the TXP busy model: two back-to-back
// transmits serialise at the card's 10 Mbit/s rate instead of overlapping in
// the old flat-latency model, and each completion latches PTX.
func TestTransmitBusyTimeSerialises(t *testing.T) {
	loop, c, _, peer := rig(t)
	frame := bytes.Repeat([]byte{0xA1}, 100)
	loadTx := func() {
		c.IOWrite(0, PortRSAR0, 1, 0)
		c.IOWrite(0, PortRSAR1, 1, 0x40)
		c.IOWrite(0, PortRBCR0, 1, uint32(len(frame)))
		c.IOWrite(0, PortRBCR1, 1, 0)
		c.IOWrite(0, PortCmd, 1, CmdStart|CmdRWrite)
		for _, b := range frame {
			c.IOWrite(0, PortData, 1, uint32(b))
		}
		c.IOWrite(0, PortTPSR, 1, 0x40)
		c.IOWrite(0, PortTBCR0, 1, uint32(len(frame)))
		c.IOWrite(0, PortTBCR1, 1, 0)
		c.IOWrite(0, PortCmd, 1, CmdStart|CmdTXP)
	}
	loadTx()
	loadTx() // second TXP while the transmitter is busy
	var t1, t2 sim.Time
	loop.RunFor(TxTime(len(frame)) + sim.Microsecond)
	if len(peer.frames) == 1 {
		t1 = loop.Now()
	}
	loop.Run()
	t2 = loop.Now()
	if len(peer.frames) != 2 {
		t.Fatalf("wire saw %d frames, want 2", len(peer.frames))
	}
	if t1 == 0 {
		t.Fatalf("first transmit did not complete within one TxTime")
	}
	if gap := t2 - t1; gap < TxTime(len(frame))-sim.Microsecond {
		t.Fatalf("transmits overlapped: gap %d, want >= %d", gap, TxTime(len(frame)))
	}
}

func TestStoppedCardDropsRx(t *testing.T) {
	_, c, _, _ := rig(t)
	c.LinkDeliver([]byte{1, 2, 3})
	if c.RxPackets != 0 {
		t.Fatal("stopped card accepted a frame")
	}
}

func TestRxRingOverrunLatchesOVW(t *testing.T) {
	_, c, _, _ := rig(t)
	c.IOWrite(0, PortPSTART, 1, 0x46)
	c.IOWrite(0, PortPSTOP, 1, 0x4B) // tiny 5-page ring
	c.IOWrite(0, PortBNRY, 1, 0x46)
	c.IOWrite(0, PortCmd, 1, CmdPage1|CmdStart)
	c.IOWrite(0, PortISR, 1, 0x47) // CURR
	c.IOWrite(0, PortCmd, 1, CmdStart)
	big := make([]byte, 700) // 3 pages each
	c.LinkDeliver(big)
	c.LinkDeliver(big) // second one cannot fit
	if c.RxPackets != 1 || c.RxDrops != 1 {
		t.Fatalf("rx=%d drops=%d", c.RxPackets, c.RxDrops)
	}
	if uint8(c.IORead(0, PortISR, 1))&IsrOVW == 0 {
		t.Fatal("OVW not latched")
	}
}

func TestResetClearsState(t *testing.T) {
	_, c, _, _ := rig(t)
	c.IOWrite(0, PortCmd, 1, CmdStart)
	c.IOWrite(0, PortReset, 1, 0)
	if uint8(c.IORead(0, PortCmd, 1))&CmdStart != 0 {
		t.Fatal("started after reset")
	}
}

func TestWordWideDataPort(t *testing.T) {
	_, c, _, _ := rig(t)
	c.IOWrite(0, PortRSAR0, 1, 0)
	c.IOWrite(0, PortRSAR1, 1, 0x40)
	c.IOWrite(0, PortRBCR0, 1, 4)
	c.IOWrite(0, PortRBCR1, 1, 0)
	c.IOWrite(0, PortCmd, 1, CmdStart|CmdRWrite)
	c.IOWrite(0, PortData, 2, 0xBBAA)
	c.IOWrite(0, PortData, 2, 0xDDCC)
	c.IOWrite(0, PortRSAR0, 1, 0)
	c.IOWrite(0, PortRSAR1, 1, 0x40)
	c.IOWrite(0, PortRBCR0, 1, 4)
	c.IOWrite(0, PortRBCR1, 1, 0)
	c.IOWrite(0, PortCmd, 1, CmdStart|CmdRRead)
	if v := c.IORead(0, PortData, 2); v != 0xBBAA {
		t.Fatalf("word read %#x", v)
	}
	if v := c.IORead(0, PortData, 2); v != 0xDDCC {
		t.Fatalf("word read %#x", v)
	}
}
