package diskperf

import (
	"bytes"
	"fmt"

	"sud/internal/drivers/nvmed"
	"sud/internal/hw"
	"sud/internal/sim"
	"sud/internal/sudml"
)

// CrashResult is one crash-consistency run: a seeded write/FUA/flush
// workload, a kill -9 of the driver process mid-traffic, a device power
// failure, and an honest restart that reads everything back.
type CrashResult struct {
	Seed uint64
	// Writes/FUAs/Flushes count acked operations before the crash.
	Writes, FUAs, Flushes int
	// Durable is how many blocks the durability contract covered at the
	// crash (acked before an acked flush, or FUA-acked); every one of
	// them survived, or the run errors.
	Durable int
	// Lost is how many blocks came back older than their last acked
	// write — every one of them was un-flushed (volatile by contract).
	Lost int
}

func (r CrashResult) String() string {
	return fmt.Sprintf(
		"BLOCK_CRASH seed=%d: %d writes (%d FUA) %d flushes; %d durable blocks intact, %d volatile blocks lost\n",
		r.Seed, r.Writes, r.FUAs, r.Flushes, r.Durable, r.Lost)
}

// crashStreams is the number of independent per-LBA write chains the
// workload drives; each stream owns one LBA and issues sequential
// versions, so every block's media state maps to exactly one version.
const crashStreams = 24

// crashPattern is block content for (lba, version): version 0 is the
// seeded factory image, each acked write bumps the version.
func crashPattern(lba uint64, ver int) byte { return byte(lba*31 + uint64(ver)*7 + 5) }

// CrashConsistency runs one seeded crash-consistency check against a fresh
// SUD testbed whose controller has a volatile write cache of cacheBlocks:
//
//	write/FUA/flush (seeded mix) → kill -9 → device power fail →
//	honest driver restart → read back and verify
//
// The verified contract is the durability half of SUD's bounded-damage
// claim: every block acked before an acked flush — and every FUA-acked
// block — holds exactly its acked bytes after the crash, and every block
// that came back older was un-flushed or unacked (the app was never told
// it was durable). Any other state is an error.
func CrashConsistency(queues, cacheBlocks int, seed uint64, plat hw.Platform) (CrashResult, error) {
	tb, err := NewTestbedWC(ModeSUD, queues, cacheBlocks, plat)
	if err != nil {
		return CrashResult{}, err
	}
	res := CrashResult{Seed: seed}

	// Seed the factory image (version 0) on every stream's LBA.
	buf := make([]byte, tb.Dev.Geom.BlockSize)
	for lba := uint64(0); lba < crashStreams; lba++ {
		for i := range buf {
			buf[i] = crashPattern(lba, 0)
		}
		tb.Ctrl.SeedMedia(lba, buf)
	}

	// Per-LBA version accounting. issued is the newest version handed to
	// the device (it may reach media by eviction even if never acked);
	// acked is the newest version whose completion the app saw; durable
	// is the newest version the contract guarantees.
	var issued, acked, durable [crashStreams]int
	rng := seed*2862933555777941757 + 3037000493
	next := func(n uint64) uint64 {
		rng = rng*2862933555777941757 + 3037000493
		return (rng >> 33) % n
	}

	stopped := false
	var issue func(s uint64)
	issue = func(s uint64) {
		if stopped {
			return
		}
		// Flushes are deliberately rare (~4% of ops): a barrier drains the
		// whole cache, and a workload that flushes constantly never holds
		// acked-volatile data long enough for the crash to matter.
		op := next(24)
		switch {
		case op == 0:
			// Flush barrier: on ack, everything acked so far is durable —
			// snapshot at completion time, per the barrier contract.
			err := tb.Dev.Flush(func(err error) {
				if stopped || err != nil {
					return
				}
				res.Flushes++
				durable = acked
				tb.M.Loop.After(2*sim.Microsecond, func() { issue(s) })
			})
			if err != nil {
				tb.M.Loop.After(10*sim.Microsecond, func() { issue(s) })
			}
		default:
			fua := op == 1
			ver := issued[s] + 1
			if ver > 255 {
				// crashPattern encodes the version in one byte; past 255
				// versions the verify step could alias v and v-256. No
				// current run window gets near this — stop issuing on the
				// stream rather than silently wrapping.
				return
			}
			data := make([]byte, tb.Dev.Geom.BlockSize)
			for i := range data {
				data[i] = crashPattern(s, ver)
			}
			done := func(err error) {
				if stopped || err != nil {
					return
				}
				res.Writes++
				if ver > acked[s] {
					acked[s] = ver
				}
				if fua {
					res.FUAs++
					if ver > durable[s] {
						durable[s] = ver
					}
				}
				tb.M.Loop.After(2*sim.Microsecond, func() { issue(s) })
			}
			var err error
			if fua {
				err = tb.Dev.WriteAtFUA(s, data, done)
			} else {
				err = tb.Dev.WriteAt(s, data, done)
			}
			if err != nil {
				tb.M.Loop.After(10*sim.Microsecond, func() { issue(s) })
				return
			}
			issued[s] = ver
		}
	}
	for s := uint64(0); s < crashStreams; s++ {
		issue(s)
	}

	// Run mid-saturation, then crash: kill -9 the driver process and cut
	// device power, discarding every un-flushed cache block.
	tb.M.Loop.RunFor(sim.Duration(3+next(5)) * sim.Millisecond)
	stopped = true
	tb.Proc.Kill()
	tb.Ctrl.PowerFail()
	tb.M.Loop.RunFor(sim.Millisecond)

	// Honest restart against the same controller, then read every block
	// back through the kernel block core.
	if _, err := sudml.StartQ(tb.K, tb.Ctrl, nvmed.NewQ(tb.Queues), "nvmed-verify", 1004, tb.Queues); err != nil {
		return res, fmt.Errorf("diskperf: verify restart: %w", err)
	}
	dev2, err := tb.K.Blk.Dev("nvme0")
	if err != nil {
		return res, err
	}
	if err := dev2.Up(); err != nil {
		return res, err
	}
	for s := uint64(0); s < crashStreams; s++ {
		s := s
		var got []byte
		var gotErr error
		if err := dev2.ReadAt(s, func(b []byte, err error) { got, gotErr = append([]byte(nil), b...), err }); err != nil {
			return res, err
		}
		tb.M.Loop.RunFor(5 * sim.Millisecond)
		if gotErr != nil {
			return res, fmt.Errorf("diskperf: verify read of block %d: %w", s, gotErr)
		}
		mediaVer := -1
		for v := 0; v <= issued[s]; v++ {
			want := crashPattern(s, v)
			if len(got) > 0 && got[0] == want && bytes.Equal(got, bytes.Repeat([]byte{want}, len(got))) {
				mediaVer = v
				break
			}
		}
		if mediaVer < 0 {
			return res, fmt.Errorf("diskperf: block %d holds bytes no write ever issued", s)
		}
		if mediaVer < durable[s] {
			return res, fmt.Errorf(
				"diskperf: block %d lost acked-durable data (media v%d, durable v%d)",
				s, mediaVer, durable[s])
		}
		if durable[s] > 0 {
			res.Durable++
		}
		if mediaVer < acked[s] {
			// Acked but never flushed: legitimately lost to the power
			// failure — the app was never told it was durable.
			res.Lost++
		}
	}
	return res, nil
}
