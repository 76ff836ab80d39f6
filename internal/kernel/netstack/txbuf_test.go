package netstack

import (
	"bytes"
	"testing"

	"sud/internal/kernel/shadow"
	"sud/internal/sim"
)

// copyDev is a fake netdev that copies each frame into one buffer, as a
// driver copies into its ring slot, and keeps nothing else.
type copyDev struct {
	loopDev
	slot [MaxFrameLen]byte
}

func (d *copyDev) StartXmit(f []byte) error {
	copy(d.slot[:], f)
	return nil
}

// reentrantDev sends from inside its first StartXmitQ, before it copies its
// own frame — as a trusted driver with a full ring does: StartXmitQ →
// reclaim → WakeQueue → the queue's wake hook → another send.
type reentrantDev struct {
	mqDev
	inner func()
}

func (d *reentrantDev) StartXmitQ(f []byte, q int) error {
	if in := d.inner; in != nil {
		d.inner = nil
		in()
	}
	return d.mqDev.StartXmitQ(f, q)
}

// TestReentrantSendKeepsBothFrames: a send made from inside the driver call
// of another builds its frame in a buffer of its own, so both frames reach
// the driver intact, and the shadow logs them in the order they entered the
// ring — the inner frame first.
func TestReentrantSendKeepsBothFrames(t *testing.T) {
	s := New(sim.NewLoop(), sim.NewCPUStats(2).Account("kernel"))
	dev := &reentrantDev{mqDev: mqDev{nq: 1}}
	ifc, err := s.Register("eth0", macA, dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := ifc.Up(ipA); err != nil {
		t.Fatal(err)
	}
	ifc.Shadow = &shadow.Net{}
	dev.inner = func() {
		if err := s.UDPSendTo(ifc, macB, ipB, 1000, 2000, []byte("inner")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.UDPSendTo(ifc, macB, ipB, 1000, 2000, []byte("outer-datagram")); err != nil {
		t.Fatal(err)
	}
	want := [][]byte{
		AppendUDPFrame(nil, macA, macB, ipA, ipB, 1000, 2000, []byte("inner")),
		AppendUDPFrame(nil, macA, macB, ipA, ipB, 1000, 2000, []byte("outer-datagram")),
	}
	got := dev.txq[0]
	logged := ifc.Shadow.TakePendingTx(0)
	if len(got) != 2 || len(logged) != 2 {
		t.Fatalf("driver got %d frames, shadow logged %d; want 2 and 2", len(got), len(logged))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("driver frame %d = %q, want %q", i, got[i], want[i])
		}
		if !bytes.Equal(logged[i], want[i]) {
			t.Errorf("shadow frame %d = %q, want %q", i, logged[i], want[i])
		}
	}
}

// TestShadowedSendAllocatesNothing pins the transmit path: building a
// datagram, handing it to a copying driver, logging it in the shadow and
// confirming it on the xmit-done credit allocate nothing once warm.
func TestShadowedSendAllocatesNothing(t *testing.T) {
	s := New(sim.NewLoop(), sim.NewCPUStats(2).Account("kernel"))
	dev := &copyDev{}
	ifc, err := s.Register("eth0", macA, dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := ifc.Up(ipA); err != nil {
		t.Fatal(err)
	}
	ifc.Shadow = &shadow.Net{}
	payload := make([]byte, 64)
	send := func() {
		if err := s.UDPSendTo(ifc, macB, ipB, 1000, 2000, payload); err != nil {
			t.Fatal(err)
		}
		ifc.TxConfirm(0)
	}
	send()
	if n := testing.AllocsPerRun(100, send); n != 0 {
		t.Fatalf("shadowed send allocates %v times", n)
	}
	if ifc.Shadow.TxLogged != 102 || ifc.Shadow.PendingTx(0) != 0 {
		t.Fatalf("logged %d, pending %d", ifc.Shadow.TxLogged, ifc.Shadow.PendingTx(0))
	}
}
