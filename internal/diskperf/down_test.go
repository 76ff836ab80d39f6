package diskperf

import (
	"errors"
	"testing"

	"sud/internal/hw"
	"sud/internal/kernel/blockdev"
	"sud/internal/sim"
)

// TestDownWaitsForIdle takes the device down 2 µs after 16 reads and a
// flush were submitted, in both hosting modes. Down must refuse while any
// of them is outstanding: stopping the driver under them would strand the
// reads, and a barrier left queued would wedge every later submission.
// Once idle, Down succeeds, and after Up the device serves I/O again.
func TestDownWaitsForIdle(t *testing.T) {
	for _, mode := range []Mode{ModeKernel, ModeSUD} {
		t.Run(mode.String(), func(t *testing.T) {
			tb, err := NewTestbed(mode, 2, hw.DefaultPlatform())
			if err != nil {
				t.Fatal(err)
			}
			dev := tb.Dev
			var reads [16]int
			for i := range reads {
				if err := dev.ReadAt(uint64(i*7), func(_ []byte, err error) {
					if err != nil {
						t.Errorf("read %d: %v", i, err)
					}
					reads[i]++
				}); err != nil {
					t.Fatal(err)
				}
			}
			flushes := 0
			if err := dev.Flush(func(err error) {
				if err != nil {
					t.Errorf("flush: %v", err)
				}
				flushes++
			}); err != nil {
				t.Fatal(err)
			}
			tb.M.Loop.RunFor(2 * sim.Microsecond)
			if err := dev.Down(); !errors.Is(err, blockdev.ErrBusy) {
				t.Fatalf("Down with %d reads in flight: %v, want ErrBusy", dev.InFlight(), err)
			}
			if !dev.IsUp() {
				t.Fatal("a refused Down took the device down")
			}
			tb.M.Loop.RunFor(sim.Millisecond)
			for i, n := range reads {
				if n != 1 {
					t.Fatalf("read %d completed %d times, want once", i, n)
				}
			}
			if flushes != 1 {
				t.Fatalf("flush completed %d times, want once", flushes)
			}

			if err := dev.Down(); err != nil {
				t.Fatalf("Down on an idle device: %v", err)
			}
			if err := dev.Up(); err != nil {
				t.Fatal(err)
			}
			tb.M.Loop.RunFor(100 * sim.Microsecond)
			got, flushed := 0, 0
			if err := dev.ReadAt(3, func(data []byte, err error) {
				if err != nil || len(data) != dev.Geom.BlockSize {
					t.Errorf("read after Up: %d bytes, %v", len(data), err)
				}
				got++
			}); err != nil {
				t.Fatal(err)
			}
			if err := dev.Flush(func(err error) {
				if err != nil {
					t.Errorf("flush after Up: %v", err)
				}
				flushed++
			}); err != nil {
				t.Fatal(err)
			}
			tb.M.Loop.RunFor(sim.Millisecond)
			if got != 1 || flushed != 1 {
				t.Fatalf("after Up: %d reads and %d flushes completed, want 1 and 1", got, flushed)
			}
		})
	}
}
