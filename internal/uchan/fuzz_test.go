package uchan

import (
	"bytes"
	"testing"
)

// TestSlotRoundTrip pins the framing: every field survives encode→decode.
func TestSlotRoundTrip(t *testing.T) {
	msgs := []struct {
		q int
		m Msg
	}{
		{0, Msg{Op: 1}},
		{3, Msg{Op: 0xFFFF_FFFF, Seq: 42, Args: [6]uint64{1, 2, 3, 4, 5, ^uint64(0)}}},
		{7, Msg{Op: 9, Data: []byte("payload"), urgent: true}},
		{MaxQueues - 1, Msg{Data: bytes.Repeat([]byte{0xA5}, MaxSlotData)}},
	}
	for _, tc := range msgs {
		q, m, err := DecodeSlot(nil, AppendSlot(nil, tc.q, tc.m))
		if err != nil {
			t.Fatalf("decode(%d, %+v): %v", tc.q, tc.m, err)
		}
		if q != tc.q || m.Op != tc.m.Op || m.Seq != tc.m.Seq ||
			m.Args != tc.m.Args || m.urgent != tc.m.urgent ||
			!bytes.Equal(m.Data, tc.m.Data) {
			t.Fatalf("round trip mangled: in (%d, %+v), out (%d, %+v)", tc.q, tc.m, q, m)
		}
	}
}

// TestAppendSlotExtends: slots appended back to back into one buffer each
// decode on their own, and the decoded payload is the kernel's own copy —
// rewriting the shared bytes afterwards does not reach it.
func TestAppendSlotExtends(t *testing.T) {
	buf := AppendSlot(nil, 1, Msg{Op: 5, Data: []byte("first")})
	split := len(buf)
	buf = AppendSlot(buf, 2, Msg{Op: 6, Data: []byte("second")})
	q1, m1, err1 := DecodeSlot(nil, buf[:split])
	q2, m2, err2 := DecodeSlot(nil, buf[split:])
	if err1 != nil || err2 != nil || q1 != 1 || q2 != 2 || m1.Op != 5 || m2.Op != 6 ||
		string(m1.Data) != "first" || string(m2.Data) != "second" {
		t.Fatalf("appended slots: (%d %+v %v) (%d %+v %v)", q1, m1, err1, q2, m2, err2)
	}
	for i := range buf {
		buf[i] = 0xEE
	}
	if string(m1.Data) != "first" || string(m2.Data) != "second" {
		t.Fatal("decoded payload aliases the shared slot bytes")
	}
}

// TestSlotDecodeRejectsMalformed covers the defensive paths an untrusted
// driver can hit by scribbling on its rings.
func TestSlotDecodeRejectsMalformed(t *testing.T) {
	if _, _, err := DecodeSlot(nil, nil); err != ErrSlotShort {
		t.Fatalf("nil slot: %v", err)
	}
	if _, _, err := DecodeSlot(nil, make([]byte, slotHeaderLen-1)); err != ErrSlotShort {
		t.Fatalf("short slot: %v", err)
	}
	// Queue tag out of range.
	b := AppendSlot(nil, 0, Msg{Op: 1})
	b[8], b[9] = 0xFF, 0xFF
	if _, _, err := DecodeSlot(nil, b); err != ErrSlotQueue {
		t.Fatalf("bad queue: %v", err)
	}
	// Length field larger than the buffer.
	b = AppendSlot(nil, 1, Msg{Data: []byte{1, 2, 3}})
	b[60] = 0x10
	if _, _, err := DecodeSlot(nil, b); err != ErrSlotPayload {
		t.Fatalf("truncated payload: %v", err)
	}
	// Length field absurd.
	b = AppendSlot(nil, 1, Msg{})
	b[62] = 0xFF
	if _, _, err := DecodeSlot(nil, b); err != ErrSlotLength {
		t.Fatalf("absurd length: %v", err)
	}
}

// FuzzDecodeSlot hammers the kernel-side slot decoder with arbitrary bytes —
// the multi-queue framing an untrusted driver process writes into shared
// memory. The decoder must never panic, anything it accepts must re-encode
// to a slot that decodes identically (no parser ambiguity), and decoding
// into a reused, garbage-filled buffer must give exactly what decoding into
// an empty one gives.
func FuzzDecodeSlot(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendSlot(nil, 0, Msg{Op: 1, Seq: 2}))
	f.Add(AppendSlot(nil, 3, Msg{Op: 0xFFFFFFFF, Data: []byte("frame bytes")}))
	f.Add(bytes.Repeat([]byte{0xFF}, slotHeaderLen+16))
	f.Fuzz(func(t *testing.T, data []byte) {
		q, m, err := DecodeSlot(nil, data)
		used := bytes.Repeat([]byte{0xEE}, 64)
		q2, m2, err2 := DecodeSlot(used, data)
		if err2 != err || q2 != q || !sameMsg(m2, m) {
			t.Fatalf("reused buffer: (%d %+v %v), empty: (%d %+v %v)", q2, m2, err2, q, m, err)
		}
		if err != nil {
			return
		}
		if q < 0 || q >= MaxQueues {
			t.Fatalf("accepted queue %d out of range", q)
		}
		if len(m.Data) > MaxSlotData {
			t.Fatalf("accepted %d payload bytes", len(m.Data))
		}
		q3, m3, err := DecodeSlot(nil, AppendSlot(nil, q, m))
		if err != nil {
			t.Fatalf("re-encode failed to decode: %v", err)
		}
		if q3 != q || !sameMsg(m3, m) {
			t.Fatal("decode/encode/decode not stable")
		}
	})
}

// sameMsg compares every field a slot carries; a nil Data (no payload)
// differs from an empty one.
func sameMsg(a, b Msg) bool {
	return a.Op == b.Op && a.Seq == b.Seq && a.Args == b.Args && a.urgent == b.urgent &&
		(a.Data == nil) == (b.Data == nil) && bytes.Equal(a.Data, b.Data)
}

// TestSlotCodecAllocatesNothing pins the slot framing to caller storage: a
// payload-carrying slot appends into a buffer with room for it and decodes
// into a destination that has carried such a payload before, without
// allocating.
func TestSlotCodecAllocatesNothing(t *testing.T) {
	in := Msg{Op: 9, Seq: 3, Args: [6]uint64{1, 2, 3}, Data: bytes.Repeat([]byte{0x5A}, 256)}
	buf := make([]byte, 0, slotHeaderLen+len(in.Data))
	dst := make([]byte, len(in.Data))
	var out Msg
	if a := testing.AllocsPerRun(100, func() {
		buf = AppendSlot(buf[:0], 2, in)
		var err error
		if _, out, err = DecodeSlot(dst, buf); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("slot encode+decode allocates %v times", a)
	}
	if !sameMsg(out, in) {
		t.Fatal("round trip through caller storage mangled the slot")
	}
}
