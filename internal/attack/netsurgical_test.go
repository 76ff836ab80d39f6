package attack

import (
	"testing"

	"sud/internal/proxy/ethproxy"
	"sud/internal/sim"
	"sud/internal/sudml/policy"
	"sud/internal/tenantperf"
	"sud/internal/trace"
)

// Net surgical recovery on the tenant testbed: NIC queue 1 (tenant 1's
// queue, IOMMU stream 2) raises DMA sub-domain faults, and the net
// supervisor revokes, parks, grades and re-arms exactly that queue while
// the driver process and the sibling queues keep serving.

func sudConfigs() []Config {
	return []Config{cfgSUD(), cfgSUDRemap(), cfgSUDAMD(), cfgSUDNoACS()}
}

// raiseNICQueueFaults makes NIC queue q's DMA engine walk garbage: four
// sub-domain faults on stream q+1, the supervisor's surgical trigger.
func raiseNICQueueFaults(tb *tenantperf.Testbed, q int) {
	for i := 0; i < 4; i++ {
		_, _, _ = tb.M.IOMMU.TranslateQ(tb.Nic.BDF(), q+1, 0xDEAD0000, true)
	}
}

// assertQueueRearmed checks that the NIC's queue q came back at its first
// surgical epoch with every TX slot free and no slot credited twice.
func assertQueueRearmed(t *testing.T, tb *tenantperf.Testbed, q int) {
	t.Helper()
	eth := tb.NetSup.Proc().Eth
	if got := eth.FreeSlots(); got != ethproxy.TxSlots {
		t.Errorf("free TX slots at quiescence = %d, want %d", got, ethproxy.TxSlots)
	}
	if eth.UpcallErrors != 0 {
		t.Errorf("proxy UpcallErrors = %d, want 0 (a credit for a slot already free)", eth.UpcallErrors)
	}
	if m, e := eth.QueueEpochMirror(q), tb.Ifc.QueueEpoch(q); m != 1 || e != 1 {
		t.Errorf("queue %d epoch: proxy mirror %d, interface %d, want 1 and 1", q, m, e)
	}
	if tb.Ifc.QueueRecovering(q) {
		t.Errorf("queue %d still parked after the re-arm", q)
	}
}

// TestNetSurgicalRecoveryQuiet: four stream-2 faults under tenant load. The
// supervisor answers with one surgical recovery of NIC queue 1 and no
// restart, the sibling tenants' p99 stays inside the victim band, tenant 1
// is served again after the re-arm, and the flight ring reads
// kill → park → verdict → replay — on every SUD platform flavour.
func TestNetSurgicalRecoveryQuiet(t *testing.T) {
	for _, cfg := range sudConfigs() {
		t.Run(cfg.Name, func(t *testing.T) {
			tb, err := noisyTestbed(cfg.Platform, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			tb.Client.Start()
			tb.M.Loop.RunFor(noisyWarmup)
			pre := tb.MeasureWindow(noisyPre)
			raiseNICQueueFaults(tb, noisyAttacker)
			during := tb.MeasureWindow(noisyDuring) // spans one health check
			after := tb.MeasureWindow(noisyPre)
			tb.Client.Stop()
			tb.M.Loop.RunFor(noisyConvict)

			sup := tb.NetSup
			if sup.QueueRecoveries != 1 || sup.Restarts != 0 {
				t.Fatalf("queue recoveries %d, restarts %d; want 1 and 0", sup.QueueRecoveries, sup.Restarts)
			}
			if sup.LastVerdict != policy.QuarantineQueue {
				t.Fatalf("verdict %v, want %v", sup.LastVerdict, policy.QuarantineQueue)
			}
			preP99, durP99, drift := tenantperf.VictimDrift(pre, during, noisyAttacker)
			if drift > VictimBand {
				t.Errorf("sibling p99 %.1fµs -> %.1fµs drifted %.1f%% (band %.0f%%)",
					preP99, durP99, drift*100, VictimBand*100)
			}
			if after[noisyAttacker].Replies == 0 {
				t.Errorf("tenant %d got no replies after the re-arm", noisyAttacker)
			}
			assertQueueRearmed(t, tb, noisyAttacker)
			want := []string{trace.FKill, trace.FPark, trace.FVerdict, trace.FReplay}
			kinds := sup.Flight.Kinds()
			i := 0
			for _, k := range kinds {
				if i < len(want) && k == want[i] {
					i++
				}
			}
			if i != len(want) {
				t.Errorf("flight ring %v lacks the ordered subsequence %v", kinds, want)
			}
		})
	}
}

// inFlightRun is the in-flight schedule on a fresh tenant testbed. The
// supervisor checks health every 5 ms from boot. Tenant 1's NIC ring hangs
// at 11 ms, so the server's replies queue as transmit upcalls the driver
// has not yet seen. With fault set, four stream-2 faults land 3 ms later,
// and the 15 ms check parks and re-arms queue 1 while those transmits — and
// the answers to the client's 4 ms retransmits — still wait ahead of the
// park frame. The ring resumes at 19.5 ms, before the 20 ms check, so the
// wedge heuristic never sees the backlog.
func inFlightRun(t *testing.T, cfg Config, fault bool) *tenantperf.Testbed {
	t.Helper()
	tb, err := noisyTestbed(cfg.Platform, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	tb.Client.Start()
	tb.M.Loop.RunUntil(11 * sim.Time(sim.Millisecond))
	ch := tb.NetSup.Proc().Chan
	ch.HangQueue(noisyAttacker, true)
	tb.M.Loop.RunFor(3 * sim.Millisecond)
	if fault {
		raiseNICQueueFaults(tb, noisyAttacker)
	}
	tb.M.Loop.RunFor(5500 * sim.Microsecond)
	if fault {
		// The schedule must land the re-arm behind queued transmits:
		// four of them plus the park and armed frames, at least.
		if tb.NetSup.QueueRecoveries != 1 || ch.QueuePending(noisyAttacker) < 6 {
			t.Fatalf("re-arm did not land behind queued transmits: %d recoveries, %d upcalls queued",
				tb.NetSup.QueueRecoveries, ch.QueuePending(noisyAttacker))
		}
	}
	ch.HangQueue(noisyAttacker, false)
	ch.Queue(noisyAttacker).Poke()
	tb.M.Loop.RunFor(20 * sim.Millisecond)
	tb.Client.Stop()
	tb.M.Loop.RunFor(noisyConvict)
	return tb
}

func duplicateReplies(tb *tenantperf.Testbed) uint64 {
	var n uint64
	for _, tl := range tb.Client.Tenants {
		n += tl.Duplicates
	}
	return n
}

// TestNetSurgicalRecoveryInFlight: the surgical re-arm lands while the
// surviving driver still owns queued transmits. The kernel must leave them
// to the driver: no TX frame is replayed from the shadow log, no credit is
// rejected as one for a slot already free, every TX slot is free exactly
// once at quiescence, and the client sees exactly the duplicate replies the
// same hang causes without any fault — on every SUD platform flavour.
func TestNetSurgicalRecoveryInFlight(t *testing.T) {
	for _, cfg := range sudConfigs() {
		t.Run(cfg.Name, func(t *testing.T) {
			tb := inFlightRun(t, cfg, true)
			sup := tb.NetSup
			if sup.QueueRecoveries != 1 || sup.Restarts != 0 {
				t.Fatalf("queue recoveries %d, restarts %d; want 1 and 0", sup.QueueRecoveries, sup.Restarts)
			}
			if sup.LastReplayed != 0 || sup.NetShadow.TxReplayed != 0 {
				t.Errorf("TX frames replayed: %d by the re-arm, %d in all; want 0",
					sup.LastReplayed, sup.NetShadow.TxReplayed)
			}
			assertQueueRearmed(t, tb, noisyAttacker)
			control := inFlightRun(t, cfg, false)
			if got, want := duplicateReplies(tb), duplicateReplies(control); got != want {
				t.Errorf("client saw %d duplicate replies, %d under the same hang without the fault", got, want)
			}
		})
	}
}

// TestNetArmStandbyRefused: hot-standby failover is block-only. Arming one
// on a net supervisor fails before any shell is spawned.
func TestNetArmStandbyRefused(t *testing.T) {
	tb, err := noisyTestbed(cfgSUD().Platform, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	accounts := len(tb.M.CPU.Names())
	if err := tb.NetSup.ArmStandby(); err == nil {
		t.Fatal("ArmStandby on a net supervisor succeeded")
	}
	if sb := tb.NetSup.StandbyProc(); sb != nil {
		t.Fatalf("net supervisor holds standby %s", sb.Name)
	}
	if n := len(tb.M.CPU.Names()); n != accounts {
		t.Fatalf("a standby shell was spawned: %d CPU accounts, was %d", n, accounts)
	}
}
