package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// payloads returns named byte streams shaped like what the runtime moves:
// monotone row pointers, sorted column indices, smooth float64 values, and
// incompressible random bytes.
func payloads() map[string][]byte {
	rng := rand.New(rand.NewSource(7))

	rowptr := make([]byte, 0, 4096*8)
	var acc [8]byte
	ptr := int64(0)
	for i := 0; i < 4096; i++ {
		binary.LittleEndian.PutUint64(acc[:], uint64(ptr))
		rowptr = append(rowptr, acc[:]...)
		ptr += int64(rng.Intn(9))
	}

	colidx := make([]byte, 0, 4096*4)
	col := int32(0)
	for i := 0; i < 4096; i++ {
		binary.LittleEndian.PutUint32(acc[:4], uint32(col))
		colidx = append(colidx, acc[:4]...)
		col += int32(rng.Intn(5))
		if i%64 == 63 {
			col = int32(rng.Intn(10)) // new row restarts the run
		}
	}

	vals := make([]byte, 0, 4096*8)
	for i := 0; i < 4096; i++ {
		v := 1.0 + 1e-3*math.Sin(float64(i)/50)
		binary.LittleEndian.PutUint64(acc[:], math.Float64bits(v))
		vals = append(vals, acc[:]...)
	}

	random := make([]byte, 4096*8)
	rng.Read(random)

	return map[string][]byte{
		"rowptr": rowptr,
		"colidx": colidx,
		"values": vals,
		"random": random,
		"empty":  nil,
		"tiny":   {1, 2, 3},
		"odd":    bytes.Repeat([]byte{9, 8, 7, 6, 5}, 13), // not word aligned
	}
}

// TestFrameRoundTrip checks that every codec round-trips every payload
// shape exactly through the framed container.
func TestFrameRoundTrip(t *testing.T) {
	for _, name := range Names() {
		c, ok := ByName(name)
		if !ok {
			t.Fatalf("registry lists %q but cannot resolve it", name)
		}
		for pname, src := range payloads() {
			frame := EncodeFrame(c, src)
			got, used, err := DecodeFrame(frame)
			if err != nil {
				t.Fatalf("%s/%s: decode: %v", name, pname, err)
			}
			if used.ID() != c.ID() {
				t.Fatalf("%s/%s: frame reports codec %s", name, pname, used.Name())
			}
			if !bytes.Equal(got, src) {
				t.Fatalf("%s/%s: round trip mismatch (%d bytes in, %d out)", name, pname, len(src), len(got))
			}
		}
	}
}

// TestCompressionWins checks the codecs actually shrink the payloads they
// were designed for — otherwise the whole subsystem is dead weight.
func TestCompressionWins(t *testing.T) {
	p := payloads()
	cases := []struct {
		codec, payload string
		minRatio       float64
	}{
		{"delta64", "rowptr", 4},
		{"delta32", "colidx", 2},
		{"fshuf", "values", 1.5},
	}
	for _, tc := range cases {
		c, _ := ByName(tc.codec)
		src := p[tc.payload]
		frame := EncodeFrame(c, src)
		ratio := float64(len(src)) / float64(len(frame))
		if ratio < tc.minRatio {
			t.Errorf("%s on %s: ratio %.2f, want >= %.1f", tc.codec, tc.payload, ratio, tc.minRatio)
		}
	}
}

// TestEncodeAdaptiveBailsToRaw checks the ~1.1x bail-out: random bytes must
// be stored raw, compressible bytes must keep the codec.
func TestEncodeAdaptiveBailsToRaw(t *testing.T) {
	p := payloads()
	frame, used := EncodeAdaptive(Default(), p["random"])
	if used.ID() != IDRaw {
		t.Errorf("random block kept codec %s", used.Name())
	}
	if len(frame) != FrameHeaderLen+len(p["random"]) {
		t.Errorf("raw bail-out frame is %d bytes, want header+payload=%d", len(frame), FrameHeaderLen+len(p["random"]))
	}
	got, _, err := DecodeFrame(frame)
	if err != nil || !bytes.Equal(got, p["random"]) {
		t.Fatalf("raw bail-out round trip failed: %v", err)
	}

	if _, used := EncodeAdaptive(Default(), p["values"]); used.ID() != IDFloatShuffle {
		t.Errorf("smooth values bailed to %s", used.Name())
	}
	if _, used := EncodeAdaptive(nil, p["values"]); used.ID() != IDRaw {
		t.Errorf("nil codec must mean raw, got %s", used.Name())
	}
}

// encodeSpy is FloatShuffle, remembering the longest input it was asked to
// encode.
type encodeSpy struct {
	Codec
	longest *int
}

func (e encodeSpy) Encode(dst, src []byte) []byte {
	*e.longest = max(*e.longest, len(src))
	return e.Codec.Encode(dst, src)
}

// TestAppendFrameAdaptiveProbesLongBlocks pins both outcomes of the probe. A
// long block whose head does not compress — a spilled vector of
// full-mantissa floats — goes to the raw frame with only its head through
// the codec. A long block whose head does compress — a V1 CRS block opens
// with its header and row pointers — is encoded whole and yields byte for
// byte the frame it always did, whether the whole then keeps the codec
// (quantised values) or not (noise after the head). Either frame decodes
// with the one decoder, and in none of these cases did the probe change the
// frame: it is what encoding the whole block and applying the 1.1 rule gives.
func TestAppendFrameAdaptiveProbesLongBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	floats := func(n int, f func(i int) float64) []byte {
		out := make([]byte, 0, 8*n)
		for i := 0; i < n; i++ {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(f(i)))
		}
		return out
	}
	spilled := floats(3000, func(int) float64 { return rng.NormFloat64() })
	rowPtrs := floats(800, func(i int) float64 { return 0 })
	for i := 0; i < 800; i++ {
		binary.LittleEndian.PutUint64(rowPtrs[8*i:], uint64(87*i))
	}
	quantised := append(append([]byte(nil), rowPtrs...), floats(3000, func(i int) float64 { return float64(i%64) / 1024 })...)
	noisyTail := append(append([]byte(nil), rowPtrs...), make([]byte, 20*len(rowPtrs))...)
	rng.Read(noisyTail[len(rowPtrs):])

	var longest int
	spy := encodeSpy{Default(), &longest}
	for _, c := range []struct {
		name      string
		src       []byte
		wantCodec uint8
		wantWhole bool // the codec saw every byte
	}{
		{"spilled vector", spilled, IDRaw, false},
		{"compressible head, compressible whole", quantised, IDFloatShuffle, true},
		{"compressible head, noise after", noisyTail, IDRaw, true},
		{"short noise", spilled[:4*adaptiveProbeLen-8], IDRaw, true},
	} {
		longest = 0
		frame, used := AppendFrameAdaptive(nil, spy, c.src)
		if used.ID() != c.wantCodec {
			t.Errorf("%s: kept codec %s", c.name, used.Name())
		}
		if whole := longest == len(c.src); whole != c.wantWhole {
			t.Errorf("%s: the codec was handed at most %d of %d bytes", c.name, longest, len(c.src))
		}
		full := EncodeFrame(Default(), c.src)
		if !KeepsCodec(len(c.src), len(full)) {
			full = EncodeFrame(Raw{}, c.src)
		}
		if !bytes.Equal(frame, full) {
			t.Errorf("%s: the frame differs from the one a full encode and the 1.1 rule yield", c.name)
		}
		if got, _, err := DecodeFrame(frame); err != nil || !bytes.Equal(got, c.src) {
			t.Errorf("%s: round trip failed: %v", c.name, err)
		}
	}
}

// TestDecodeFrameRejectsCorruption flips, truncates, and rewrites frames:
// every mutation must surface ErrCorrupt, never wrong bytes.
func TestDecodeFrameRejectsCorruption(t *testing.T) {
	src := payloads()["values"]
	for _, name := range Names() {
		c, _ := ByName(name)
		frame := EncodeFrame(c, src)

		for cut := 0; cut < len(frame); cut += 1 + len(frame)/17 {
			if got, _, err := DecodeFrame(frame[:cut]); err == nil && !bytes.Equal(got, src) {
				t.Fatalf("%s: truncation to %d returned wrong bytes without error", name, cut)
			}
		}
		for pos := 0; pos < len(frame); pos += 1 + len(frame)/41 {
			mut := append([]byte(nil), frame...)
			mut[pos] ^= 0x40
			got, _, err := DecodeFrame(mut)
			if err == nil && !bytes.Equal(got, src) {
				t.Fatalf("%s: bit flip at %d returned wrong bytes without error", name, pos)
			}
			if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: bit flip at %d: error does not wrap ErrCorrupt: %v", name, pos, err)
			}
		}
	}
	if _, _, err := DecodeFrame(nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("nil frame: %v", err)
	}
	bad := EncodeFrame(Raw{}, []byte("x"))
	bad[4] = 0xEE
	if _, _, err := DecodeFrame(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("unknown codec ID: %v", err)
	}
}

// TestRegistry checks lookup by ID and name, the capability mask, and the
// frame peek helper.
func TestRegistry(t *testing.T) {
	for _, id := range []uint8{IDRaw, IDDeltaVarint, IDDeltaVarint3, IDFloatShuffle} {
		c, ok := ByID(id)
		if !ok {
			t.Fatalf("codec ID %d not registered", id)
		}
		if c2, ok := ByName(c.Name()); !ok || c2.ID() != id {
			t.Fatalf("name %q does not resolve back to ID %d", c.Name(), id)
		}
	}
	if _, ok := ByID(200); ok {
		t.Error("unregistered ID resolved")
	}
	if m := Mask(); m&0x0F != 0x0F {
		t.Errorf("capability mask %08b missing a builtin codec", m)
	}
	frame := EncodeFrame(Default(), []byte("hello hello hello"))
	c, err := FrameCodec(frame)
	if err != nil || c.ID() != IDFloatShuffle {
		t.Errorf("FrameCodec = %v, %v", c, err)
	}
	if _, err := FrameCodec([]byte("nope")); !errors.Is(err, ErrCorrupt) {
		t.Errorf("FrameCodec on junk: %v", err)
	}
}

// TestLZOverlappingMatch pins the classic RLE-via-overlap case: a match
// whose length exceeds its offset copies its own output.
func TestLZOverlappingMatch(t *testing.T) {
	src := bytes.Repeat([]byte{0xAB}, 300)
	enc := lzEncode(nil, src)
	if len(enc) >= len(src)/2 {
		t.Errorf("run of identical bytes barely compressed: %d -> %d", len(src), len(enc))
	}
	got := make([]byte, len(src))
	if err := lzDecode(got, enc); err != nil || !bytes.Equal(got, src) {
		t.Fatalf("overlap round trip failed: %v", err)
	}
}

func benchPayload() []byte { return payloads()["values"] }

func BenchmarkEncodeFloatShuffle(b *testing.B) {
	src := benchPayload()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		EncodeFrame(Default(), src)
	}
}

func BenchmarkDecodeFloatShuffle(b *testing.B) {
	frame := EncodeFrame(Default(), benchPayload())
	b.SetBytes(int64(len(benchPayload())))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeFrame(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendFrameAdaptiveReuse measures the wire/spill encode path as
// the storage and remote layers drive it: appending into a recycled
// destination buffer, which should be alloc-free at steady state.
func BenchmarkAppendFrameAdaptiveReuse(b *testing.B) {
	src := benchPayload()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = AppendFrameAdaptive(buf[:0], Default(), src)
	}
	_ = buf
}

// BenchmarkDecodeDeltaColIdx decodes what the delta32 section of a staged
// DOOCCRS2 block holds: sorted column indices, gaps of one byte, a two-byte
// step back at each row start.
func BenchmarkDecodeDeltaColIdx(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	src := make([]byte, 0, 4*64<<10)
	for col := int32(0); len(src) < cap(src); {
		src = binary.LittleEndian.AppendUint32(src, uint32(col))
		if col += 1 + rng.Int31n(16); col >= 750 {
			col = rng.Int31n(16)
		}
	}
	c, _ := ByID(IDDeltaVarint3)
	frame := EncodeFrame(c, src)
	dst := make([]byte, len(src))
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeFrameInto(dst, frame, false); err != nil {
			b.Fatal(err)
		}
	}
}
