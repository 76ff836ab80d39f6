package kvserve

import (
	"bytes"
	"testing"
)

// FuzzDecodeRequest drives the tenant-facing request parser with arbitrary
// datagrams. The parser must never panic, and anything it accepts must
// re-encode to the very bytes it consumed (the format has no redundancy, so
// accept → canonical). The re-encode goes into a reused, garbage-filled
// buffer, as a sender encoding into its own storage does, and must give
// exactly the bytes it consumed.
func FuzzDecodeRequest(f *testing.F) {
	f.Add(AppendRequest(nil, Request{Op: OpGet, ID: 1, Key: []byte("k")}))
	f.Add(AppendRequest(nil, Request{Op: OpPut, ID: 99, Key: []byte("key"), Val: []byte("value")}))
	f.Add(AppendRequest(nil, Request{Op: OpDel, ID: 1 << 60, Key: bytes.Repeat([]byte{'x'}, MaxKeyLen)}))
	f.Add([]byte{})
	f.Add([]byte{OpPut, 0, 0, 0, 0, 0, 0, 0, 0, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data)
		if err != nil {
			return
		}
		if len(req.Key) == 0 || len(req.Key) > MaxKeyLen || len(req.Val) > MaxValLen {
			t.Fatalf("accepted out-of-range lengths: key=%d val=%d", len(req.Key), len(req.Val))
		}
		reused := bytes.Repeat([]byte{0xEE}, len(data))
		if got := AppendRequest(reused[:0], req); !bytes.Equal(got, data) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data, got)
		}
	})
}
