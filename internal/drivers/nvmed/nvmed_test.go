package nvmed_test

import (
	"bytes"
	"testing"

	"sud/internal/devices/nvme"
	"sud/internal/drivers/nvmed"
	"sud/internal/hw"
	"sud/internal/kernel"
	"sud/internal/kernel/blockdev"
	"sud/internal/pci"
	"sud/internal/sim"
)

// boot brings up the trusted in-kernel configuration: NVMe-lite controller
// driven by nvmed with full kernel privileges (the Figure 8 baseline shape,
// applied to storage).
func boot(t *testing.T, queues int) (*hw.Machine, *kernel.Kernel, *nvme.Ctrl, *blockdev.Dev) {
	t.Helper()
	m := hw.NewMachine(hw.DefaultPlatform())
	k := kernel.New(m)
	c := nvme.New(m.Loop, pci.MakeBDF(2, 0, 0), 0xFEC00000, nvme.MultiQueueParams(queues))
	m.AttachDevice(c)
	if _, err := k.BindInKernel(nvmed.NewQ(queues), c); err != nil {
		t.Fatal(err)
	}
	d, err := k.Blk.Dev("nvme0")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Up(); err != nil {
		t.Fatal(err)
	}
	return m, k, c, d
}

func TestInKernelWriteReadRoundTrip(t *testing.T) {
	m, _, _, d := boot(t, 2)
	if d.Geom.BlockSize != nvme.BlockSize || d.Geom.Blocks == 0 {
		t.Fatalf("bad identified geometry: %+v", d.Geom)
	}

	pattern := bytes.Repeat([]byte{0xC3}, nvme.BlockSize)
	wrote := false
	if err := d.WriteAt(11, pattern, func(err error) {
		if err != nil {
			t.Errorf("write completion: %v", err)
		}
		wrote = true
	}); err != nil {
		t.Fatal(err)
	}
	m.Loop.RunFor(sim.Millisecond)
	if !wrote {
		t.Fatal("write never completed")
	}

	var got []byte
	if err := d.ReadAt(11, func(data []byte, err error) {
		if err != nil {
			t.Errorf("read completion: %v", err)
			return
		}
		got = append([]byte(nil), data...)
	}); err != nil {
		t.Fatal(err)
	}
	m.Loop.RunFor(sim.Millisecond)
	if !bytes.Equal(got, pattern) {
		t.Fatal("read back wrong data")
	}
}

func TestOutOfRangeLBARejectedAtSubmit(t *testing.T) {
	_, _, _, d := boot(t, 1)
	err := d.ReadAt(d.Geom.Blocks+5, func([]byte, error) { t.Error("callback ran") })
	if err != blockdev.ErrOutOfRange {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
}

func TestQueueFullParksAndDrains(t *testing.T) {
	m, _, _, d := boot(t, 1)
	// Far more requests than the 64-deep hardware queue: the overflow
	// parks in the queue context and drains via stop/wake.
	const n = 150
	done := 0
	for i := 0; i < n; i++ {
		if err := d.ReadAtQ(uint64(i), 0, func(_ []byte, err error) {
			if err != nil {
				t.Errorf("completion %v", err)
			}
			done++
		}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if d.Queue(0).Waiting() == 0 {
		t.Fatal("nothing parked: queue never backpressured")
	}
	m.Loop.RunFor(20 * sim.Millisecond)
	if done != n {
		t.Fatalf("completed %d/%d", done, n)
	}
	if d.InFlight() != 0 || d.Queue(0).Waiting() != 0 {
		t.Fatalf("leftover state: %d in flight, %d waiting", d.InFlight(), d.Queue(0).Waiting())
	}
}

func TestSubmissionsSpreadAcrossQueues(t *testing.T) {
	m, _, _, d := boot(t, 4)
	for i := 0; i < 64; i++ {
		if err := d.ReadAt(uint64(i*7), func([]byte, error) {}); err != nil {
			t.Fatal(err)
		}
	}
	m.Loop.RunFor(10 * sim.Millisecond)
	for q := 0; q < d.NumQueues(); q++ {
		if d.Queue(q).Reads == 0 {
			t.Fatalf("queue %d idle: LBA steering not spreading", q)
		}
	}
}

func TestStopFreesAndRestarts(t *testing.T) {
	m, _, _, d := boot(t, 2)
	pattern := bytes.Repeat([]byte{0x11}, nvme.BlockSize)
	if err := d.WriteAt(3, pattern, func(error) {}); err != nil {
		t.Fatal(err)
	}
	m.Loop.RunFor(sim.Millisecond)
	if err := d.Down(); err != nil {
		t.Fatal(err)
	}
	if err := d.Up(); err != nil {
		t.Fatal(err)
	}
	var got []byte
	if err := d.ReadAt(3, func(data []byte, err error) {
		if err != nil {
			t.Errorf("read after restart: %v", err)
		}
		got = append([]byte(nil), data...)
	}); err != nil {
		t.Fatal(err)
	}
	m.Loop.RunFor(sim.Millisecond)
	if !bytes.Equal(got, pattern) {
		t.Fatal("media lost across stop/start")
	}
}
