package blkproxy

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzDecodeBlkBatch feeds arbitrary bytes to the completion-batch decoder.
// The batch buffer is written by the untrusted driver process, so the
// decoder must never panic and must reject anything that does not
// round-trip exactly: counts out of range, truncated entries, trailing
// slack. Decoding into a reused, garbage-filled destination must give
// exactly what decoding into an empty one gives.
func FuzzDecodeBlkBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{1, 0})
	f.Add(AppendBlkBatch(nil, []CompRef{{Tag: 1, Status: 0, IOVA: 0x42430000, Len: 4096}}))
	f.Add(AppendBlkBatch(nil, []CompRef{
		{Tag: 7, Status: 3},
		{Tag: ^uint64(0), IOVA: ^uint64(0), Len: ^uint32(0)},
	}))
	// Page-flip shapes: a page-aligned full-block read (the flip fast
	// path) and a deliberately misaligned one (must fall back to the
	// guard copy).
	f.Add(AppendBlkBatch(nil, []CompRef{{Tag: 2, IOVA: 0x43000000, Len: 4096}}))
	f.Add(AppendBlkBatch(nil, []CompRef{{Tag: 3, IOVA: 0x43000200, Len: 4096}}))
	f.Fuzz(func(t *testing.T, buf []byte) {
		comps, err := DecodeBlkBatch(nil, buf)
		var used [MaxBlkBatch]CompRef
		for i := range used {
			used[i] = CompRef{Tag: uint64(i) + 0xDEAD, Status: 0xEEEE, IOVA: ^uint64(i), Len: 0xBAD}
		}
		comps2, err2 := DecodeBlkBatch(used[:], buf)
		if err2 != err || !slices.Equal(comps2, comps) {
			t.Fatalf("reused destination: (%+v %v), empty: (%+v %v)", comps2, err2, comps, err)
		}
		if err != nil {
			return
		}
		if len(comps) == 0 || len(comps) > MaxBlkBatch {
			t.Fatalf("decoded %d completions", len(comps))
		}
		// Anything that decodes must re-encode to the identical bytes —
		// the framing has no redundancy for an attacker to hide in.
		if !bytes.Equal(AppendBlkBatch(nil, comps), buf) {
			t.Fatalf("decode/encode mismatch")
		}
	})
}

func TestBlkBatchRoundTrip(t *testing.T) {
	in := []CompRef{
		{Tag: 1, Status: 0, IOVA: 0x42430000, Len: 4096},
		{Tag: 99, Status: 2},
		{Tag: 1 << 40, IOVA: 1 << 50, Len: 7},
	}
	out, err := DecodeBlkBatch(nil, AppendBlkBatch(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len %d", len(out))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("entry %d: %+v != %+v", i, in[i], out[i])
		}
	}
}

func TestBlkBatchRejectsMalformed(t *testing.T) {
	good := AppendBlkBatch(nil, []CompRef{{Tag: 1, Len: 4096}})
	cases := map[string][]byte{
		"short":     {1},
		"zero":      {0, 0},
		"overcount": {255, 255},
		"truncated": good[:len(good)-3],
		"slack":     append(append([]byte{}, good...), 0xEE),
	}
	for name, buf := range cases {
		if _, err := DecodeBlkBatch(nil, buf); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Encode truncates at the bound instead of overflowing the count.
	many := make([]CompRef, MaxBlkBatch+10)
	if got, err := DecodeBlkBatch(nil, AppendBlkBatch(nil, many)); err != nil || len(got) != MaxBlkBatch {
		t.Fatalf("bound truncation: %d, %v", len(got), err)
	}
}

// TestBlkCodecsAllocateNothing pins the block framings to caller storage:
// a full batch and a flush frame encode into buffers of MaxBlkBatchLen and
// FlushOpLen, and the batch decodes into a MaxBlkBatch destination, without
// allocating.
func TestBlkCodecsAllocateNothing(t *testing.T) {
	in := make([]CompRef, MaxBlkBatch)
	for i := range in {
		in[i] = CompRef{Tag: uint64(i), IOVA: uint64(i) << 12, Len: 4096}
	}
	batch := make([]byte, 0, MaxBlkBatchLen)
	frame := make([]byte, 0, FlushOpLen)
	dst := make([]CompRef, MaxBlkBatch)
	var out []CompRef
	if a := testing.AllocsPerRun(100, func() {
		batch = AppendBlkBatch(batch[:0], in)
		var err error
		if out, err = DecodeBlkBatch(dst, batch); err != nil {
			t.Fatal(err)
		}
		frame = AppendFlushOp(frame[:0], FlushOp{Barrier: 1, Epoch: 2, Tag: 3})
		if _, err := DecodeFlushOp(frame); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("block codecs allocate %v times", a)
	}
	if !slices.Equal(out, in) || len(batch) != MaxBlkBatchLen {
		t.Fatal("round trip through caller storage mangled the batch")
	}
}

// FuzzDecodeFlushOp feeds arbitrary bytes to the flush-barrier decoder.
// The OpFlushDone frame is written by the untrusted driver process — it is
// the message that tells the kernel "your data is durable" — so the
// decoder must never panic and must reject anything that is not exactly
// one frame; whatever does decode must round-trip to identical bytes (no
// redundancy for an attacker to hide in). The frame decodes to a value, so
// the reuse property is the encoder's: appending into a reused,
// garbage-filled buffer gives exactly what appending into an empty one
// gives.
func FuzzDecodeFlushOp(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, FlushOpLen-1))
	f.Add(make([]byte, FlushOpLen+1))
	f.Add(AppendFlushOp(nil, FlushOp{Barrier: 1, Epoch: 2, Tag: 3}))
	f.Add(AppendFlushOp(nil, FlushOp{Barrier: ^uint64(0), Epoch: ^uint64(0), Tag: ^uint64(0), Status: ^uint16(0)}))
	f.Fuzz(func(t *testing.T, buf []byte) {
		fo, err := DecodeFlushOp(buf)
		if err != nil {
			return
		}
		if !bytes.Equal(AppendFlushOp(nil, fo), buf) {
			t.Fatalf("decode/encode mismatch")
		}
		reused := bytes.Repeat([]byte{0xEE}, FlushOpLen)
		if !bytes.Equal(AppendFlushOp(reused[:0], fo), buf) {
			t.Fatal("encode into a reused buffer differs")
		}
	})
}

func TestFlushOpRoundTrip(t *testing.T) {
	in := FlushOp{Barrier: 7, Epoch: 3, Tag: 1 << 40, Status: 2}
	out, err := DecodeFlushOp(AppendFlushOp(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if in != out {
		t.Fatalf("%+v != %+v", in, out)
	}
	for _, bad := range [][]byte{nil, {1}, make([]byte, FlushOpLen+1)} {
		if _, err := DecodeFlushOp(bad); err == nil {
			t.Fatalf("accepted %d bytes", len(bad))
		}
	}
}
