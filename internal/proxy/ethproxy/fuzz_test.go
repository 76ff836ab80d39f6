package ethproxy

import (
	"slices"
	"testing"
)

// TestRxBatchRoundTrip pins the batched-RX framing: every reference
// survives encode→decode, and the encoder truncates at MaxRxBatch.
func TestRxBatchRoundTrip(t *testing.T) {
	cases := [][]RxRef{
		{{IOVA: 0x1000, Len: 64}},
		{{IOVA: ^uint64(0), Len: ^uint32(0)}, {IOVA: 0, Len: 0}},
		make([]RxRef, MaxRxBatch),
	}
	for _, refs := range cases {
		got, err := DecodeRxBatch(nil, AppendRxBatch(nil, refs))
		if err != nil {
			t.Fatalf("decode(%d refs): %v", len(refs), err)
		}
		if len(got) != len(refs) {
			t.Fatalf("round trip %d -> %d refs", len(refs), len(got))
		}
		for i := range refs {
			if got[i] != refs[i] {
				t.Fatalf("ref %d mangled: %+v -> %+v", i, refs[i], got[i])
			}
		}
	}
	// Oversized input truncates at the bound instead of overflowing.
	big := make([]RxRef, MaxRxBatch+7)
	got, err := DecodeRxBatch(nil, AppendRxBatch(nil, big))
	if err != nil || len(got) != MaxRxBatch {
		t.Fatalf("oversized batch: %d refs, %v", len(got), err)
	}
}

// TestRxBatchDecodeRejectsMalformed covers the defensive paths a malicious
// driver can hit by scribbling batch bytes into its rings.
func TestRxBatchDecodeRejectsMalformed(t *testing.T) {
	if _, err := DecodeRxBatch(nil, nil); err != ErrBatchShort {
		t.Fatalf("nil batch: %v", err)
	}
	if _, err := DecodeRxBatch(nil, []byte{1}); err != ErrBatchShort {
		t.Fatalf("1-byte batch: %v", err)
	}
	// Zero count and absurd counts are rejected.
	if _, err := DecodeRxBatch(nil, []byte{0, 0}); err != ErrBatchCount {
		t.Fatalf("zero count: %v", err)
	}
	if _, err := DecodeRxBatch(nil, []byte{0xFF, 0xFF}); err != ErrBatchCount {
		t.Fatalf("absurd count: %v", err)
	}
	// Count names more refs than the buffer carries.
	b := AppendRxBatch(nil, []RxRef{{IOVA: 1, Len: 2}})
	b[0] = 2
	if _, err := DecodeRxBatch(nil, b); err != ErrBatchTrunc {
		t.Fatalf("truncated batch: %v", err)
	}
	// Trailing garbage is rejected, not silently ignored (no parser
	// ambiguity for a smuggled second payload).
	b = AppendRxBatch(nil, []RxRef{{IOVA: 1, Len: 2}})
	b = append(b, 0xEE)
	if _, err := DecodeRxBatch(nil, b); err != ErrBatchSlack {
		t.Fatalf("slack bytes: %v", err)
	}
}

// FuzzDecodeRxBatch hammers the kernel-side batch decoder with arbitrary
// bytes — the framing an untrusted driver process writes into shared
// memory. The decoder must never panic, anything it accepts must respect
// the batch bound, and accepted batches must re-encode to bytes that decode
// identically (no parser ambiguity). Decoding into a reused, garbage-filled
// destination must give exactly what decoding into an empty one gives.
func FuzzDecodeRxBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendRxBatch(nil, []RxRef{{IOVA: 0x2000, Len: 1514}}))
	f.Add(AppendRxBatch(nil, make([]RxRef, MaxRxBatch)))
	f.Add([]byte{0xFF, 0x00, 1, 2, 3})
	// Page-flip shapes: slot-packed refs fully tiling one page (the flip
	// fast path), a duplicate slot (must fall back to the per-frame
	// guard), and a ref straddling a slot boundary.
	f.Add(AppendRxBatch(nil, []RxRef{
		{IOVA: 0x4000, Len: 1514}, {IOVA: 0x4000 + RxSlotSize, Len: 60},
	}))
	f.Add(AppendRxBatch(nil, []RxRef{
		{IOVA: 0x4000, Len: 64}, {IOVA: 0x4000, Len: 64},
	}))
	f.Add(AppendRxBatch(nil, []RxRef{{IOVA: 0x4000 + RxSlotSize/2, Len: 1514}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		refs, err := DecodeRxBatch(nil, data)
		var used [MaxRxBatch]RxRef
		for i := range used {
			used[i] = RxRef{IOVA: ^uint64(i), Len: 0xBAD0 + uint32(i)}
		}
		refs2, err2 := DecodeRxBatch(used[:], data)
		if err2 != err || !slices.Equal(refs2, refs) {
			t.Fatalf("reused destination: (%+v %v), empty: (%+v %v)", refs2, err2, refs, err)
		}
		if err != nil {
			return
		}
		if len(refs) == 0 || len(refs) > MaxRxBatch {
			t.Fatalf("accepted %d refs", len(refs))
		}
		refs3, err := DecodeRxBatch(nil, AppendRxBatch(nil, refs))
		if err != nil {
			t.Fatalf("re-encode failed to decode: %v", err)
		}
		if !slices.Equal(refs3, refs) {
			t.Fatal("decode/encode/decode not stable")
		}
	})
}

// TestRxBatchCodecAllocatesNothing pins the RX framing to caller storage:
// a full batch encodes into a MaxRxBatchLen buffer and decodes into a
// MaxRxBatch destination without allocating.
func TestRxBatchCodecAllocatesNothing(t *testing.T) {
	in := make([]RxRef, MaxRxBatch)
	for i := range in {
		in[i] = RxRef{IOVA: uint64(i) * RxSlotSize, Len: 64}
	}
	buf := make([]byte, 0, MaxRxBatchLen)
	dst := make([]RxRef, MaxRxBatch)
	var out []RxRef
	if a := testing.AllocsPerRun(100, func() {
		buf = AppendRxBatch(buf[:0], in)
		var err error
		if out, err = DecodeRxBatch(dst, buf); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("rx batch encode+decode allocates %v times", a)
	}
	if !slices.Equal(out, in) || len(buf) != MaxRxBatchLen {
		t.Fatal("round trip through caller storage mangled the batch")
	}
}
