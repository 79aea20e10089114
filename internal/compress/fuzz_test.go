package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// fuzzRoundTrip is the shared property for every codec: (1) an encoded
// frame decodes back to the exact input, and (2) a mutated frame either
// errors or still yields the exact input — never silently wrong bytes.
func fuzzRoundTrip(f *testing.F, c Codec) {
	f.Add([]byte(nil), uint16(0))
	f.Add([]byte{0}, uint16(1))
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 16), uint16(9))
	mono := make([]byte, 0, 64*8)
	for i := 0; i < 64; i++ {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], uint64(i*3))
		mono = append(mono, w[:]...)
	}
	f.Add(mono, uint16(100))
	f.Fuzz(func(t *testing.T, src []byte, mut uint16) {
		frame := EncodeFrame(c, src)
		got, used, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("decode of own frame: %v", err)
		}
		if used.ID() != c.ID() || !bytes.Equal(got, src) {
			t.Fatalf("round trip mismatch: codec %s, %d bytes in, %d out", used.Name(), len(src), len(got))
		}

		// Mutate one byte at a fuzz-chosen position.
		bad := append([]byte(nil), frame...)
		pos := int(mut) % len(bad)
		bad[pos] ^= 1 << (mut % 8)
		if bytes.Equal(bad, frame) {
			return
		}
		if got, _, err := DecodeFrame(bad); err == nil && !bytes.Equal(got, src) {
			t.Fatalf("mutated frame (byte %d) decoded to wrong bytes without error", pos)
		}

		// Truncate at a fuzz-chosen position.
		cut := frame[:pos]
		if got, _, err := DecodeFrame(cut); err == nil && !bytes.Equal(got, src) {
			t.Fatalf("truncated frame (%d bytes) decoded to wrong bytes without error", pos)
		}
	})
}

func FuzzRawRoundTrip(f *testing.F)           { fuzzRoundTrip(f, Raw{}) }
func FuzzDeltaVarint64RoundTrip(f *testing.F) { fuzzRoundTrip(f, mustByID(f, IDDeltaVarint)) }
func FuzzDeltaVarint32RoundTrip(f *testing.F) { fuzzRoundTrip(f, mustByID(f, IDDeltaVarint3)) }
func FuzzFloatShuffleRoundTrip(f *testing.F)  { fuzzRoundTrip(f, FloatShuffle{}) }

func mustByID(f *testing.F, id uint8) Codec {
	c, ok := ByID(id)
	if !ok {
		f.Fatalf("codec %d not registered", id)
	}
	return c
}

// FuzzDecodeFrame throws arbitrary bytes at the frame decoder: it must
// never panic, and any accepted frame must satisfy its own header (length
// and CRC), which DecodeFrame enforces internally.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("DOZ1"))
	f.Add(EncodeFrame(Raw{}, []byte("seed")))
	f.Add(EncodeFrame(FloatShuffle{}, bytes.Repeat([]byte{0, 1}, 64)))
	f.Fuzz(func(t *testing.T, data []byte) {
		out, c, err := DecodeFrame(data)
		if err == nil {
			// Accepted: the frame header must describe exactly this output.
			if uint64(len(out)) != binary.LittleEndian.Uint64(data[6:]) {
				t.Fatalf("accepted frame: output %d bytes, header %d", len(out), binary.LittleEndian.Uint64(data[6:]))
			}
			if c == nil {
				t.Fatal("accepted frame with nil codec")
			}
		}
	})
}

// guard is what the decode-into fuzz targets fence their output with.
var guard = [8]byte{0xA5, 0xA5, 0xA5, 0xA5, 0xA5, 0xA5, 0xA5, 0xA5}

// FuzzLZDecode throws arbitrary token streams and length claims at the LZ
// decoder: no panics, no out-of-bounds reads, no write outside the declared
// length.
func FuzzLZDecode(f *testing.F) {
	f.Add([]byte(nil), 0)
	f.Add([]byte{0x00, 'a'}, 1)
	f.Add([]byte{0x80, 0x01, 0x00}, 4)
	f.Add(lzEncode(nil, bytes.Repeat([]byte("abc"), 50)), 150)
	f.Fuzz(func(t *testing.T, data []byte, rawLen int) {
		if rawLen < 0 || rawLen > 1<<20 {
			return
		}
		// Guard bytes either side of out catch a write outside it.
		buf := bytes.Repeat([]byte{0xA5}, rawLen+16)
		_ = lzDecode(buf[8:8+rawLen], data)
		if !bytes.Equal(buf[:8], guard[:]) || !bytes.Equal(buf[8+rawLen:], guard[:]) {
			t.Fatal("lzDecode wrote outside its output")
		}
	})
}

// refDeltaDecode is the byte-at-a-time delta-varint decoder DecodeInto
// replaced, kept as the differential oracle: one binary.Uvarint and one
// staged word per element.
func refDeltaDecode(w int, src []byte, rawLen int) ([]byte, bool) {
	n, tail := rawLen/w, rawLen%w
	out := make([]byte, 0, rawLen)
	var prev uint64
	for i := 0; i < n; i++ {
		zz, used := binary.Uvarint(src)
		if used <= 0 {
			return nil, false
		}
		src = src[used:]
		delta := int64(zz>>1) ^ -int64(zz&1)
		var word [8]byte
		if w == 8 {
			prev += uint64(delta)
			binary.LittleEndian.PutUint64(word[:], prev)
		} else {
			prev = uint64(uint32(prev) + uint32(delta))
			binary.LittleEndian.PutUint32(word[:], uint32(prev))
		}
		out = append(out, word[:w]...)
	}
	if len(src) != tail {
		return nil, false
	}
	return append(out, src...), true
}

// FuzzDeltaVarintDecodeInto holds the word-at-a-time decoder against the
// byte-at-a-time one on arbitrary streams and length claims: same verdict
// (any refusal is ErrCorrupt), same bytes when accepted, nothing written
// outside dst, no panic — in particular on truncated and overlong varints
// that straddle an 8-byte group.
func FuzzDeltaVarintDecodeInto(f *testing.F) {
	d64, d32 := mustByID(f, IDDeltaVarint), mustByID(f, IDDeltaVarint3)
	gaps := make([]byte, 0, 40*4)
	for i := 0; i < 40; i++ {
		var w [4]byte
		binary.LittleEndian.PutUint32(w[:], uint32(i*7%90))
		gaps = append(gaps, w[:]...)
	}
	f.Add(d32.Encode(nil, gaps), len(gaps), false)
	f.Add(d64.Encode(nil, gaps), len(gaps), true)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 0x80}, 32, false)                              // truncated varint ends a group
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 0x80, 1, 1, 1, 1, 1, 1, 1, 1}, 64, true)       // two-byte varint straddles groups
	f.Add(append(bytes.Repeat([]byte{0xFF}, 10), 1, 1, 1, 1, 1, 1, 1, 1), 36, false) // overlong varint
	f.Add(append(bytes.Repeat([]byte{3}, 17), 9, 9, 9), 17*4+3, false)               // tail bytes
	f.Add(bytes.Repeat([]byte{3}, 16), 15*8, true)                                   // one byte too many
	f.Fuzz(func(t *testing.T, src []byte, rawLen int, wide bool) {
		if rawLen < 0 || rawLen > 1<<16 {
			return
		}
		c := d32.(DeltaVarint)
		if wide {
			c = d64.(DeltaVarint)
		}
		want, ok := refDeltaDecode(c.Width, src, rawLen)
		buf := bytes.Repeat([]byte{0xA5}, rawLen+16)
		dst := buf[8 : 8+rawLen]
		err := c.DecodeInto(dst, src)
		if !bytes.Equal(buf[:8], guard[:]) || !bytes.Equal(buf[8+rawLen:], guard[:]) {
			t.Fatal("DecodeInto wrote outside dst")
		}
		if (err == nil) != ok {
			t.Fatalf("width %d, %d bytes to %d: DecodeInto err=%v, reference accepted=%v", c.Width, len(src), rawLen, err, ok)
		}
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("refusal does not wrap ErrCorrupt: %v", err)
		}
		if ok && !bytes.Equal(dst, want) {
			t.Fatalf("width %d: DecodeInto differs from the reference decoder", c.Width)
		}
		if ok && rawLen > c.MaxDecodedLen(len(src)) {
			t.Fatalf("width %d: %d bytes decoded to %d, MaxDecodedLen says %d", c.Width, len(src), rawLen, c.MaxDecodedLen(len(src)))
		}
	})
}
