package shadow

import (
	"testing"

	"sud/internal/drivers/api"
)

func TestBlockLogRecordAndReplaySchedule(t *testing.T) {
	s := NewBlock(api.BlockGeometry{BlockSize: 512, Blocks: 64})
	// Interleave two queues; queue order must be per-queue submission order.
	s.RecordSubmit(1, api.BlockRequest{LBA: 10, Tag: 0})
	s.RecordSubmit(0, api.BlockRequest{LBA: 20, Tag: 1})
	s.RecordSubmit(1, api.BlockRequest{Write: true, LBA: 11, Tag: 2, Data: []byte{1, 2}})
	s.RecordSubmit(0, api.BlockRequest{LBA: 21, Tag: 3})
	if s.Pending() != 4 {
		t.Fatalf("pending = %d", s.Pending())
	}
	s.RecordComplete(1) // LBA 20 finished: must not replay
	byQ := s.PendingByQueue(2)
	if len(byQ[0]) != 1 || byQ[0][0].Req.LBA != 21 {
		t.Fatalf("queue 0 schedule: %+v", byQ[0])
	}
	if len(byQ[1]) != 2 || byQ[1][0].Req.LBA != 10 || byQ[1][1].Req.LBA != 11 {
		t.Fatalf("queue 1 schedule out of order: %+v", byQ[1])
	}
	// The schedule is a view: building it must not consume the log (a
	// second kill during replay rebuilds from what is still unfinished).
	if s.Pending() != 3 {
		t.Fatalf("building the schedule consumed the log: %d", s.Pending())
	}
}

func TestBlockLogClampsForeignQueues(t *testing.T) {
	s := NewBlock(api.BlockGeometry{BlockSize: 512, Blocks: 64})
	s.RecordSubmit(9, api.BlockRequest{LBA: 1, Tag: 0}) // queue shrank across restart
	byQ := s.PendingByQueue(2)
	if len(byQ[0]) != 1 {
		t.Fatalf("out-of-range queue not clamped: %+v", byQ)
	}
}

func TestBlockLogReset(t *testing.T) {
	s := NewBlock(api.BlockGeometry{BlockSize: 512, Blocks: 64})
	s.RecordSubmit(0, api.BlockRequest{LBA: 1, Tag: 0})
	s.Reset()
	if s.Pending() != 0 {
		t.Fatal("reset kept log entries")
	}
}
