package shadow_test

import (
	"bytes"
	"testing"

	"sud/internal/drivers/api"
	"sud/internal/kernel/blockdev"
	"sud/internal/kernel/shadow"
	"sud/internal/sim"
)

// holdDrv accepts every request and never completes one (a driver about to
// die), copying write payloads at Submit as the ownership contract requires.
type holdDrv struct{ writes map[uint64][]byte } // LBA → payload as submitted

func (f *holdDrv) Open() error { return nil }
func (f *holdDrv) Stop() error { return nil }
func (f *holdDrv) Queues() int { return 1 }
func (f *holdDrv) Submit(q int, req api.BlockRequest) error {
	if req.Write {
		f.writes[req.LBA] = append([]byte(nil), req.Data...)
	}
	return nil
}

// TestBlockLogCopiesWritePayloads: the log shares the block core's own copy
// of each write payload rather than copying again, so the property to pin
// is end to end — a caller that reuses its buffer right after WriteAt
// returns never changes what a replay writes.
func TestBlockLogCopiesWritePayloads(t *testing.T) {
	loop := sim.NewLoop()
	m := blockdev.New(loop, sim.NewCPUStats(2).Account("kernel"))
	geom := api.BlockGeometry{BlockSize: 64, Blocks: 8}
	d, err := m.Register("d0", geom, &holdDrv{writes: map[uint64][]byte{}})
	if err != nil {
		t.Fatal(err)
	}
	d.AttachShadow(shadow.NewBlock(geom))
	if err := d.Up(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, geom.BlockSize)
	for lba := uint64(1); lba <= 3; lba++ {
		for i := range buf {
			buf[i] = byte(lba)
		}
		if err := d.WriteAt(lba, buf, func(error) {}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range buf {
		buf[i] = 0xEE // the caller reuses its buffer
	}

	if _, err := m.BeginRecovery("d0"); err != nil {
		t.Fatal(err)
	}
	restarted := &holdDrv{writes: map[uint64][]byte{}}
	if _, err := m.Register("d0", geom, restarted); err != nil {
		t.Fatal(err)
	}
	if n, err := d.CompleteRecovery(); err != nil || n != 3 {
		t.Fatalf("replay scheduled %d requests (%v), want 3", n, err)
	}
	for lba := uint64(1); lba <= 3; lba++ {
		got := restarted.writes[lba]
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(lba)}, geom.BlockSize)) {
			t.Fatalf("replayed write to LBA %d carries %v, want its original payload", lba, got)
		}
	}
}
