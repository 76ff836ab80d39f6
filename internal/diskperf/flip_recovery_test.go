package diskperf

import (
	"testing"

	"sud/internal/hw"
	"sud/internal/proxy/blkproxy"
	"sud/internal/proxy/protocol"
	"sud/internal/sim"
	"sud/internal/uchan"
)

// runFlipKillRecovery drives the kill -9 smoke with the page-flip fast path
// enabled and checks the invariants specific to flipped ownership: the kill
// lands while pages are lent out by reference, yet every request completes
// exactly once with correct data, no physical page leaks across the
// incarnation boundary, the restarted process re-engages the fast path, and
// recycle acks minted by the dead incarnation are rejected by epoch.
func runFlipKillRecovery(t *testing.T, queues int) {
	t.Helper()
	tb, err := NewSupervisedTestbedFlip(queues, hw.DefaultPlatform())
	if err != nil {
		t.Fatal(err)
	}
	if !tb.Flip {
		t.Fatal("supervised flip testbed did not mark itself flip")
	}
	old := tb.Sup.Proc()
	inUse0 := tb.K.M.Alloc.InUse()

	res, err := KillRecovery(tb, 8, 4, 2*sim.Millisecond, 60*sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.String())

	// The baseline recovery contract must hold unchanged under page flip:
	// exactly-once completion (a replayed duplicate would double-complete a
	// tag and surface as an error or an extra completion against preKill
	// accounting inside KillRecovery), correct bytes, workload resumed.
	if res.Errors != 0 {
		t.Fatalf("%d app-visible errors across the kill", res.Errors)
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", res.Restarts)
	}
	if res.Replayed == 0 {
		t.Fatal("no requests replayed — the kill missed the in-flight window")
	}
	if res.Completed < 1000 {
		t.Fatalf("only %d requests completed (workload did not resume)", res.Completed)
	}

	// The kill landed mid-flip: the dead incarnation had revoked pages and
	// an active recycle lane.
	if old.Blk.PagesFlipped == 0 {
		t.Fatal("old incarnation never flipped a page — the kill did not exercise the fast path")
	}
	if old.Blk.RecycleUpcalls == 0 {
		t.Fatal("old incarnation's recycle lane never ran")
	}

	// No page leaked: the dead incarnation's teardown reclaims every DMA
	// page — including pages revoked (flipped) but not yet recycled at kill
	// time — and the successor allocates the identical layout, so physical
	// memory in use returns exactly to the pre-kill level.
	if !old.DF.Closed() {
		t.Fatal("dead incarnation's device file not torn down")
	}
	if n := len(old.DF.Allocs()); n != 0 {
		t.Fatalf("dead incarnation still holds %d DMA allocations", n)
	}
	if got := tb.K.M.Alloc.InUse(); got != inUse0 {
		t.Fatalf("physical pages in use %d after recovery, want %d (page leak across incarnations)", got, inUse0)
	}

	// The successor inherited the page-flip contract and re-engaged it.
	cur := tb.Sup.Proc()
	if cur == old {
		t.Fatal("supervisor did not swap in a new process")
	}
	if cur.Blk.GuardMode != blkproxy.GuardPageFlip {
		t.Fatal("restarted incarnation lost GuardPageFlip — its page-aware driver would starve")
	}
	if cur.Blk.PagesFlipped == 0 {
		t.Fatal("restarted incarnation never flipped a page")
	}
	if tb.Proc.BadRecycleFrames != 0 || cur.BadRecycleFrames != 0 {
		t.Fatalf("malformed recycle frames: old=%d new=%d", tb.Proc.BadRecycleFrames, cur.BadRecycleFrames)
	}

	// A recycle ack minted by the dead incarnation (replayed across the
	// recovery, or forged with the stale epoch) must be rejected by the
	// epoch check, not re-arm pages for the successor.
	staleBefore, acksBefore := cur.Blk.RecycleStaleAck, cur.Blk.RecycleAcks
	cur.Blk.HandleDowncall(0, uchan.Msg{
		Op:   blkproxy.OpRecycleAck,
		Data: protocol.AppendRecycle(nil, 0, []uint64{0x42430000}),
	})
	if cur.Blk.RecycleStaleAck != staleBefore+1 {
		t.Fatalf("stale-epoch recycle ack not rejected (stale=%d)", cur.Blk.RecycleStaleAck)
	}
	if cur.Blk.RecycleAcks != acksBefore {
		t.Fatal("stale-epoch recycle ack was counted as live")
	}
}

// TestKillRecoveryMidFlipQ1 covers the single-queue geometry, where the
// flip lane and the replay lane share one ring pair.
func TestKillRecoveryMidFlipQ1(t *testing.T) { runFlipKillRecovery(t, 1) }

// TestKillRecoveryMidFlipQ4 covers the fanned-out geometry, where the kill
// strands flipped pages on four queues at once.
func TestKillRecoveryMidFlipQ4(t *testing.T) { runFlipKillRecovery(t, 4) }
