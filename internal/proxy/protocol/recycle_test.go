package protocol

import (
	"bytes"
	"slices"
	"testing"
)

// TestRecycleRoundTrip pins the recycle-ring framing: epoch and every page
// IOVA survive encode→decode at the boundaries of the count range.
func TestRecycleRoundTrip(t *testing.T) {
	cases := []struct {
		epoch uint32
		pages []uint64
	}{
		{0, []uint64{0x1000}},
		{^uint32(0), []uint64{0, ^uint64(0), 0xFEED0000}},
		{7, make([]uint64, MaxRecyclePages)},
	}
	for _, c := range cases {
		epoch, pages, err := DecodeRecycle(nil, AppendRecycle(nil, c.epoch, c.pages))
		if err != nil {
			t.Fatalf("decode(%d pages): %v", len(c.pages), err)
		}
		if epoch != c.epoch {
			t.Fatalf("epoch %d -> %d", c.epoch, epoch)
		}
		if len(pages) != len(c.pages) {
			t.Fatalf("round trip %d -> %d pages", len(c.pages), len(pages))
		}
		for i := range pages {
			if pages[i] != c.pages[i] {
				t.Fatalf("page %d mangled: %#x -> %#x", i, c.pages[i], pages[i])
			}
		}
	}
}

// TestRecycleRejectsMalformed covers the defensive paths either untrusted
// direction (upcall or echoed ack) can hit.
func TestRecycleRejectsMalformed(t *testing.T) {
	good := AppendRecycle(nil, 1, []uint64{0x1000, 0x2000})
	cases := map[string]struct {
		buf  []byte
		want error
	}{
		"nil":       {nil, ErrRecycleShort},
		"short":     {good[:recycleHdrSize-1], ErrRecycleShort},
		"zero":      {[]byte{0, 0, 1, 0, 0, 0}, ErrRecycleCount},
		"overcount": {[]byte{0xFF, 0xFF, 0, 0, 0, 0}, ErrRecycleCount},
		"truncated": {good[:len(good)-1], ErrRecycleTrunc},
		"slack":     {append(append([]byte{}, good...), 0xEE), ErrRecycleSlack},
	}
	for name, c := range cases {
		if _, _, err := DecodeRecycle(nil, c.buf); err != c.want {
			t.Errorf("%s: got %v, want %v", name, err, c.want)
		}
	}
	// Senders own their batch size: out-of-range encodes are programming
	// errors, not attacker input, and panic.
	for _, pages := range [][]uint64{nil, make([]uint64, MaxRecyclePages+1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("encode of %d pages did not panic", len(pages))
				}
			}()
			AppendRecycle(nil, 0, pages)
		}()
	}
}

// FuzzDecodeRecycleRing hammers the recycle-frame decoder with arbitrary
// bytes. Both directions of the lane cross the untrusted shared-memory ring
// — the upcall handing pages back to the driver and the ack the driver
// echoes — so the decoder must never panic, anything it accepts must respect
// the page bound, and accepted frames must re-encode to identical bytes (no
// parser ambiguity for a smuggled payload). Decoding into a reused,
// garbage-filled destination must give exactly what decoding into an empty
// one gives, and re-encoding into a reused buffer the same bytes.
func FuzzDecodeRecycleRing(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add(AppendRecycle(nil, 1, []uint64{0x42431000}))
	f.Add(AppendRecycle(nil, ^uint32(0), make([]uint64, MaxRecyclePages)))
	f.Add([]byte{0xFF, 0xFF, 1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, buf []byte) {
		epoch, pages, err := DecodeRecycle(nil, buf)
		var used [MaxRecyclePages]uint64
		for i := range used {
			used[i] = 0xDEAD_0000_0000 + uint64(i)
		}
		epoch2, pages2, err2 := DecodeRecycle(used[:], buf)
		if err2 != err || epoch2 != epoch || !slices.Equal(pages2, pages) {
			t.Fatalf("reused destination: (%d %x %v), empty: (%d %x %v)", epoch2, pages2, err2, epoch, pages, err)
		}
		if err != nil {
			return
		}
		if len(pages) == 0 || len(pages) > MaxRecyclePages {
			t.Fatalf("accepted %d pages", len(pages))
		}
		if !bytes.Equal(AppendRecycle(nil, epoch, pages), buf) {
			t.Fatal("decode/encode mismatch")
		}
		reused := bytes.Repeat([]byte{0xEE}, MaxRecycleLen)
		if !bytes.Equal(AppendRecycle(reused[:0], epoch, pages), buf) {
			t.Fatal("encode into a reused buffer differs")
		}
	})
}

// TestRecycleCodecAllocatesNothing pins both directions of the recycle lane
// to caller storage: encoding into a MaxRecycleLen buffer and decoding into
// a MaxRecyclePages destination allocate nothing.
func TestRecycleCodecAllocatesNothing(t *testing.T) {
	in := make([]uint64, MaxRecyclePages)
	for i := range in {
		in[i] = uint64(i+1) << 12
	}
	buf := make([]byte, 0, MaxRecycleLen)
	dst := make([]uint64, MaxRecyclePages)
	var pages []uint64
	if a := testing.AllocsPerRun(100, func() {
		buf = AppendRecycle(buf[:0], 7, in)
		var err error
		if _, pages, err = DecodeRecycle(dst, buf); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("recycle encode+decode allocates %v times", a)
	}
	if !slices.Equal(pages, in) {
		t.Fatal("round trip through caller storage mangled the pages")
	}
}
