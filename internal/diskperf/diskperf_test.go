package diskperf

import (
	"testing"

	"sud/internal/hw"
	"sud/internal/netperf"
	"sud/internal/sim"
)

func testOpt() netperf.Options {
	return netperf.Options{
		Warmup:        10 * sim.Millisecond,
		Window:        50 * sim.Millisecond,
		MinWindows:    3,
		MaxWindows:    4,
		HalfWidthFrac: 0.05,
	}
}

func runIOPS(t *testing.T, mode Mode, queues int) Result {
	t.Helper()
	tb, err := NewTestbed(mode, queues, hw.DefaultPlatform())
	if err != nil {
		t.Fatal(err)
	}
	res, err := BlockIOPS(tb, 16, 6, testOpt())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBlockIOPSScalesWithQueues is the block acceptance bar: Q=4 must
// deliver at least twice the Q=1 rate under the same offered load, because
// the device engines, the driver queue pairs, the uchan rings and the
// block-core queue contexts all scale per queue.
func TestBlockIOPSScalesWithQueues(t *testing.T) {
	q1 := runIOPS(t, ModeSUD, 1)
	q4 := runIOPS(t, ModeSUD, 4)
	if q1.ReadKIOPS <= 0 {
		t.Fatalf("Q=1 rate %v", q1.ReadKIOPS)
	}
	if q4.ReadKIOPS < 2*q1.ReadKIOPS {
		t.Fatalf("no multi-queue payoff: Q=4 %.1f vs Q=1 %.1f Kiops",
			q4.ReadKIOPS, q1.ReadKIOPS)
	}
	// Every ring pair carried traffic.
	for _, q := range q4.PerQueue {
		if q.Doorbells == 0 {
			t.Fatalf("queue %d idle", q.Queue)
		}
	}
}

// TestSUDMatchesKernelWhenDeviceBound mirrors the Figure 8 TCP row's story
// for storage: with a single queue pair the device is the bottleneck, so
// the untrusted configuration delivers the same IOPS as the trusted one and
// pays only CPU.
func TestSUDMatchesKernelWhenDeviceBound(t *testing.T) {
	kern := runIOPS(t, ModeKernel, 1)
	sud := runIOPS(t, ModeSUD, 1)
	if sud.ReadKIOPS < 0.95*kern.ReadKIOPS {
		t.Fatalf("SUD %.1f vs kernel %.1f Kiops", sud.ReadKIOPS, kern.ReadKIOPS)
	}
	if sud.CPU <= kern.CPU {
		t.Fatalf("SUD CPU %.3f not above kernel %.3f (isolation is not free)", sud.CPU, kern.CPU)
	}
}

// TestCompletionsBatchPerDoorbell checks the batched completion payoff: a
// busy queue delivers many completions per driver doorbell, not one.
func TestCompletionsBatchPerDoorbell(t *testing.T) {
	res := runIOPS(t, ModeSUD, 1)
	if res.CompsPerDoorbell < 4 {
		t.Fatalf("completions per doorbell = %.2f", res.CompsPerDoorbell)
	}
}

// TestSeededCheck pins the kill and breach harnesses' read check: a read
// passes only as one whole block of its own LBA's seeded byte, so an
// error-free wrong length, any one wrong byte or another LBA's block
// counts as an error. The check reads back what seedPattern wrote.
func TestSeededCheck(t *testing.T) {
	tb, err := NewSupervisedTestbed(2, hw.DefaultPlatform())
	if err != nil {
		t.Fatal(err)
	}
	seedPattern(tb)
	for lba := uint64(0); lba < seedSpan; lba++ {
		b := tb.Ctrl.PeekMedia(lba)
		if !seeded(lba, b) {
			t.Fatalf("lba %d: its seeded block fails the check", lba)
		}
		if seeded(lba, b[:len(b)-1]) || seeded(lba, append(b, b[0])) {
			t.Fatalf("lba %d: a wrong length passes", lba)
		}
		if seeded((lba+1)%seedSpan, b) {
			t.Fatalf("lba %d: passes as lba %d", lba, (lba+1)%seedSpan)
		}
		for _, i := range []int{0, int(lba) * 61, len(b) - 1} {
			b[i]++
			if seeded(lba, b) {
				t.Fatalf("lba %d: byte %d wrong passes", lba, i)
			}
			b[i]--
		}
	}
}

// TestKillRecoveryInvisible drives the recovery smoke the CI step records:
// kill -9 of the supervised nvmed process mid-saturation must complete
// every request with correct data (zero app-visible errors), replay the
// in-flight log, and resume the workload.
func TestKillRecoveryInvisible(t *testing.T) {
	tb, err := NewSupervisedTestbed(2, hw.DefaultPlatform())
	if err != nil {
		t.Fatal(err)
	}
	res, err := KillRecovery(tb, 8, 4, 2*sim.Millisecond, 60*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d app-visible errors across the kill", res.Errors)
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", res.Restarts)
	}
	if res.Replayed == 0 {
		t.Fatal("no requests replayed")
	}
	if res.RecoveryLatencyUS <= 0 {
		t.Fatal("no recovery latency measured")
	}
	if res.Completed < 1000 {
		t.Fatalf("only %d requests completed (workload did not resume)", res.Completed)
	}
}
