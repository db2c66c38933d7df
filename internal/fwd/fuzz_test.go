package fwd

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"madgo/internal/mad"
)

// Fuzz targets for the codecs that parse bytes off the wire: the GTM
// message header every gateway decodes before relaying (§2.3), the striping
// rail header that extends it, and the reliable-datagram packet formats. The
// contract under test is the same for all of them: decode never panics,
// rejects malformed input with ok=false, and accepts exactly the encoder's
// output — for every accepted input the re-encoded fields reproduce the
// input byte for byte.

func FuzzGTMHeader(f *testing.F) {
	for _, seed := range gtmHeaderSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src, dst, mtu, id, ok := decodeGTMHeader(data)
		if !ok {
			// The only legal grounds for rejection: wrong length or a
			// non-positive MTU field.
			if len(data) == gtmHeaderLen && binary.LittleEndian.Uint32(data[8:]) != 0 {
				t.Fatalf("rejected a well-formed %d-byte header with mtu %d",
					len(data), binary.LittleEndian.Uint32(data[8:]))
			}
			return
		}
		if mtu <= 0 {
			t.Fatalf("accepted header with unusable mtu %d", mtu)
		}
		if re := encodeGTMHeader(src, dst, mtu, id); !bytes.Equal(re, data) {
			t.Fatalf("round-trip mismatch:\n in  %x\n out %x", data, re)
		}
	})
}

// FuzzGTMCompactHeader covers the eager path's compact first transfer: a
// GTM header with the first data fragment glued on. The fragment may be
// empty (header-only compact frame); everything after the header is
// fragment, so any length at or above gtmHeaderLen with a usable MTU must
// be accepted and round-trip exactly.
func FuzzGTMCompactHeader(f *testing.F) {
	for _, seed := range gtmCompactSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src, dst, mtu, id, frag, ok := decodeGTMCompact(data)
		if !ok {
			if len(data) >= gtmHeaderLen && binary.LittleEndian.Uint32(data[8:]) != 0 {
				t.Fatalf("rejected a well-formed %d-byte compact frame with mtu %d",
					len(data), binary.LittleEndian.Uint32(data[8:]))
			}
			return
		}
		if mtu <= 0 {
			t.Fatalf("accepted compact frame with unusable mtu %d", mtu)
		}
		if len(frag) != len(data)-gtmHeaderLen {
			t.Fatalf("fragment length %d does not cover the %d bytes after the header",
				len(frag), len(data)-gtmHeaderLen)
		}
		if re := encodeGTMCompact(src, dst, mtu, id, frag); !bytes.Equal(re, data) {
			t.Fatalf("round-trip mismatch:\n in  %x\n out %x", data, re)
		}
	})
}

func FuzzStripeHeader(f *testing.F) {
	for _, seed := range stripeHeaderSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, ok := decodeStripeHeader(data)
		if !ok {
			return
		}
		if h.mtu <= 0 || h.nrails < 1 || h.rail >= h.nrails {
			t.Fatalf("accepted header with unusable rail fields: %+v", h)
		}
		// Spans a receiver acts on must stay inside the advertised total —
		// a corrupted span must never index the posted buffer out of
		// bounds.
		if h.spanStart < 0 || h.spanLen < 0 || h.total < 0 ||
			h.spanStart+h.spanLen > h.total {
			t.Fatalf("accepted out-of-range span: %+v", h)
		}
		if re := encodeStripeHeader(h); !bytes.Equal(re, data) {
			t.Fatalf("round-trip mismatch:\n in  %x\n out %x", data, re)
		}
		// The first 20 bytes stay GTM-compatible so gateways can route a
		// rail without understanding striping.
		src, dst, mtu, id, gok := decodeGTMHeader(data[:gtmHeaderLen])
		if !gok || src != h.src || dst != h.dst || mtu != h.mtu || id != h.id {
			t.Fatalf("stripe header prefix not GTM-compatible: %+v", h)
		}
	})
}

// FuzzMcastHeader covers the multicast destination-set header. Acceptance
// is strict: canonical (strictly increasing) destination lists only, a
// bounded count, a usable MTU and a matching CRC — a corrupted set silently
// mis-replicates, so every accepted input must re-encode byte for byte and
// every single-byte corruption must be rejected.
func FuzzMcastHeader(f *testing.F) {
	for _, seed := range mcastHeaderSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src, mtu, id, dests, ok := decodeMcastHeader(data)
		if !ok {
			return
		}
		if mtu <= 0 {
			t.Fatalf("accepted header with unusable mtu %d", mtu)
		}
		if len(dests) < 1 || len(dests) > mcastMaxDests {
			t.Fatalf("accepted header with illegal destination count %d", len(dests))
		}
		for i := 1; i < len(dests); i++ {
			if dests[i] <= dests[i-1] {
				t.Fatalf("accepted non-canonical destination set %v", dests)
			}
		}
		if re := encodeMcastHeader(src, mtu, id, dests); !bytes.Equal(re, data) {
			t.Fatalf("round-trip mismatch:\n in  %x\n out %x", data, re)
		}
		if len(data) <= 256 {
			for i := range data {
				data[i] ^= 0xFF
				if _, _, _, _, stillOK := decodeMcastHeader(data); stillOK {
					t.Fatalf("header still decodes with byte %d flipped", i)
				}
				data[i] ^= 0xFF
			}
		}
	})
}

func FuzzRelData(f *testing.F) {
	for _, seed := range relDataSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, ok := decodeRelData(data)
		if !ok {
			return
		}
		re := encodeRelData(d.origin, d.final, d.id, d.frag, d.total, d.flags, d.payload, d.acks)
		if !bytes.Equal(re, data) {
			t.Fatalf("round-trip mismatch:\n in  %x\n out %x", data, re)
		}
		// CRC32 detects every single-byte corruption; a packet that still
		// decodes after a flip would mean the checksum is not actually
		// covering that byte.
		if len(data) <= 256 {
			for i := range data {
				data[i] ^= 0xFF
				if _, stillOK := decodeRelData(data); stillOK {
					t.Fatalf("packet still decodes with byte %d flipped", i)
				}
				data[i] ^= 0xFF
			}
		}
	})
}

func FuzzRelAck(f *testing.F) {
	for _, seed := range relAckSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		keys, ok := decodeRelAcks(data)
		if !ok {
			return
		}
		if len(keys) == 0 || len(keys) > relAckBatchMax {
			t.Fatalf("accepted ack batch of illegal size %d", len(keys))
		}
		re := encodeRelAcks(keys)
		if !bytes.Equal(re, data) {
			t.Fatalf("round-trip mismatch:\n in  %x\n out %x", data, re)
		}
		for i := range data {
			data[i] ^= 0xFF
			if _, stillOK := decodeRelAcks(data); stillOK {
				t.Fatalf("ack batch still decodes with byte %d flipped", i)
			}
			data[i] ^= 0xFF
		}
	})
}

func FuzzRelDesc(f *testing.F) {
	for _, seed := range relDescSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		mtu, desc, ok := decodeRelDesc(data)
		if !ok {
			return
		}
		if mtu <= 0 {
			t.Fatalf("accepted descriptor with unusable mtu %d", mtu)
		}
		if len(data) != 8+6*len(desc) {
			t.Fatalf("accepted descriptor whose length %d does not match %d blocks",
				len(data), len(desc))
		}
		// Re-encode through the real encoder when the block sizes are small
		// enough to materialize; huge advertised sizes are legal in the
		// descriptor (the unpack calls reject them later) but not worth a
		// multi-gigabyte allocation here.
		total := 0
		for _, d := range desc {
			total += d.Size
			if d.Size > 1<<16 || total > 1<<20 {
				return
			}
		}
		blocks := make([]packedBlock, len(desc))
		for i, d := range desc {
			blocks[i] = packedBlock{data: make([]byte, d.Size), s: d.S, r: d.R}
		}
		if re := encodeRelDesc(mtu, blocks); !bytes.Equal(re, data) {
			t.Fatalf("round-trip mismatch:\n in  %x\n out %x", data, re)
		}
	})
}

// Seed corpora. The same byte sets feed f.Add at run time and the checked-in
// files under testdata/fuzz (regenerated by TestRegenFuzzCorpus), so `go test
// -fuzz` and a bare `go test` exercise identical seeds.

func gtmHeaderSeeds() [][]byte {
	return [][]byte{
		encodeGTMHeader(0, 1, 4096, 1),
		encodeGTMHeader(3, 7, 1, ^uint64(0)),
		encodeGTMHeader(8, 4, 1<<31-1, 42),
		make([]byte, gtmHeaderLen), // right length, mtu 0 → rejected
		make([]byte, gtmHeaderLen-1),
		make([]byte, gtmHeaderLen+1),
		{},
	}
}

func gtmCompactSeeds() [][]byte {
	return [][]byte{
		encodeGTMCompact(0, 1, 4096, 1, []byte("tiny payload")),
		encodeGTMCompact(3, 7, 1, ^uint64(0), nil), // header-only: empty eager message
		encodeGTMCompact(8, 4, 1<<31-1, 42, make([]byte, eagerInlineMax)),
		make([]byte, gtmHeaderLen), // right length, mtu 0 → rejected
		make([]byte, gtmHeaderLen-1),
		{},
	}
}

func stripeHeaderSeeds() [][]byte {
	return [][]byte{
		encodeStripeHeader(stripeHdr{src: 0, dst: 1, mtu: 4096, id: 1,
			rail: 0, nrails: 2, spanStart: 0, spanLen: 64 << 10, total: 128 << 10}),
		encodeStripeHeader(stripeHdr{src: 3, dst: 7, mtu: 1, id: ^uint64(0),
			rail: 2, nrails: 3, flags: stripeFlagForwarded,
			spanStart: 100, spanLen: 0, total: 100}),
		encodeStripeHeader(stripeHdr{src: 8, dst: 4, mtu: 1 << 20, id: 42,
			rail: 0, nrails: 1, spanStart: 0, spanLen: 9, total: 9}),
		make([]byte, stripeHeaderLen), // mtu 0 → rejected
		make([]byte, stripeHeaderLen-1),
		make([]byte, stripeHeaderLen+1),
		{},
	}
}

func mcastHeaderSeeds() [][]byte {
	return [][]byte{
		encodeMcastHeader(0, 4096, 1, []mad.Rank{1}),
		encodeMcastHeader(3, 1, ^uint64(0), []mad.Rank{0, 2, 7}),
		encodeMcastHeader(8, 1<<31-1, 42, []mad.Rank{1, 2, 3, 4, 5, 6, 7, 8}),
		make([]byte, mcastHeaderLen(1)), // count 0 → rejected
		make([]byte, mcastHeaderLen(1)-1),
		make([]byte, mcastHeaderLen(2)),
		{},
	}
}

func relDataSeeds() [][]byte {
	return [][]byte{
		encodeRelData(0, 1, 1, 0, 3, 0, []byte("payload"), nil),
		encodeRelData(5, 5, 9, e2eFrag, 0, relFlagFlush, nil, nil), // end-to-end ack shape
		encodeRelData(2, 3, 1<<40, 7, 8, 0, make([]byte, 64), nil),
		encodeRelData(1, 2, 4, 0, 1, relFlagFlush, []byte("piggy"), // piggybacked hop acks
			[]relAckKey{{origin: 2, id: 3, frag: 0}, {origin: 2, id: 3, frag: 1}}),
		make([]byte, relOverhead), // zero CRC → rejected
		make([]byte, relOverhead-1),
		{},
	}
}

func relAckSeeds() [][]byte {
	return [][]byte{
		encodeRelAcks([]relAckKey{{origin: 0, id: 1, frag: 0}}),
		encodeRelAcks([]relAckKey{{origin: 9, id: ^uint64(0), frag: e2eFrag}}),
		encodeRelAcks([]relAckKey{
			{origin: 1, id: 7, frag: 0},
			{origin: 1, id: 7, frag: 1},
			{origin: 4, id: 2, frag: 5},
		}),
		make([]byte, 1+relAckEntry+relTrailerLen), // count 0 → rejected
		make([]byte, relAckEntry),
		{},
	}
}

func relDescSeeds() [][]byte {
	return [][]byte{
		encodeRelDesc(4096, nil),
		encodeRelDesc(1, []packedBlock{{data: []byte("abc"), s: mad.SendCheaper, r: mad.ReceiveCheaper}}),
		encodeRelDesc(65536, []packedBlock{
			{data: make([]byte, 100), s: mad.SendSafer, r: mad.ReceiveExpress},
			{data: nil, s: mad.SendLater, r: mad.ReceiveCheaper},
		}),
		{0, 0, 0, 0, 0, 0, 0, 0}, // mtu 0 → rejected
		make([]byte, 7),
		{},
	}
}

// TestRegenFuzzCorpus rewrites the seed corpora under testdata/fuzz from the
// live encoders. Run with MADGO_REGEN_CORPUS=1 after changing a wire format;
// a bare `go test` only verifies the files are present and well-formed.
func TestRegenFuzzCorpus(t *testing.T) {
	corpora := map[string][][]byte{
		"FuzzGTMHeader":        gtmHeaderSeeds(),
		"FuzzGTMCompactHeader": gtmCompactSeeds(),
		"FuzzStripeHeader":     stripeHeaderSeeds(),
		"FuzzMcastHeader":      mcastHeaderSeeds(),
		"FuzzRelData":          relDataSeeds(),
		"FuzzRelAck":           relAckSeeds(),
		"FuzzRelDesc":          relDescSeeds(),
	}
	regen := os.Getenv("MADGO_REGEN_CORPUS") != ""
	for name, seeds := range corpora {
		dir := filepath.Join("testdata", "fuzz", name)
		if regen {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		for i, seed := range seeds {
			path := filepath.Join(dir, "seed-"+strconv.Itoa(i))
			want := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
			if regen {
				if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing seed corpus entry (MADGO_REGEN_CORPUS=1 regenerates): %v", err)
			}
			if string(got) != want {
				t.Errorf("%s is stale; regenerate with MADGO_REGEN_CORPUS=1", path)
			}
		}
	}
}
