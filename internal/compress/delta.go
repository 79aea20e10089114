package compress

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// DeltaVarint encodes the payload as a stream of fixed-width little-endian
// words (Width 8 or 4), replacing each word with the zigzag varint of its
// wrapping delta from the previous word. CRS row pointers are monotone with
// small gaps and column indices within a row are sorted, so both collapse
// to one- or two-byte deltas. Any trailing bytes that do not fill a word
// are copied verbatim. The transform is exact for arbitrary input: deltas
// wrap, so even random words round-trip (they just do not shrink, and the
// adaptive frame encoder bails to Raw).
type DeltaVarint struct {
	// Width is the word size in bytes: 8 (int64 row pointers) or 4
	// (int32 column indices).
	Width int

	id   uint8
	name string
}

// ID returns the codec's registered wire ID.
func (d DeltaVarint) ID() uint8 { return d.id }

// Name returns the codec's registered name.
func (d DeltaVarint) Name() string { return d.name }

// Encode appends the delta-varint form of src to dst.
func (d DeltaVarint) Encode(dst, src []byte) []byte {
	w := d.Width
	n := len(src) / w
	var tmp [binary.MaxVarintLen64]byte
	var prev uint64
	for i := 0; i < n; i++ {
		var v uint64
		if w == 8 {
			v = binary.LittleEndian.Uint64(src[i*8:])
		} else {
			v = uint64(binary.LittleEndian.Uint32(src[i*4:]))
		}
		delta := int64(v - prev)
		if w == 4 {
			delta = int64(int32(uint32(v) - uint32(prev)))
		}
		zz := uint64(delta<<1) ^ uint64(delta>>63)
		dst = append(dst, tmp[:binary.PutUvarint(tmp[:], zz)]...)
		prev = v
	}
	return append(dst, src[n*w:]...)
}

// MaxDecodedLen: every word costs at least one varint byte, and the tail is
// shorter than a word.
func (d DeltaVarint) MaxDecodedLen(srcLen int) int { return (srcLen + 1) * d.Width }

// putWord stores v, or its low half, as word i of dst.
func (d DeltaVarint) putWord(dst []byte, i int, v uint64) {
	if d.Width == 8 {
		binary.LittleEndian.PutUint64(dst[8*i:], v)
	} else {
		binary.LittleEndian.PutUint32(dst[4*i:], uint32(v))
	}
}

// SWAR masks over the eight bytes of a 64-bit load.
const (
	continues = 0x8080808080808080 // a varint's continuation bit, per byte
	lowBits   = 0x0101010101010101
	magnitude = 0x3f3f3f3f3f3f3f3f // a one-byte zigzag value shifted right by one
)

// DecodeInto reverses Encode, writing each reconstructed word to its place
// in dst. It validates that the varint stream is well formed and fills dst
// exactly. CRS gaps are one byte except at row starts, so the loop loads 64
// bits of varints at a time, un-zigzags all eight bytes at once and stores
// as many words as there are one-byte varints ahead of the first that
// continues — all eight, usually — then takes that one by itself.
func (d DeltaVarint) DecodeInto(dst, src []byte) error {
	w := d.Width
	n := len(dst) / w
	var prev uint64
	for i := 0; i < n; {
		if n-i >= 8 && len(src) >= 8 {
			g := binary.LittleEndian.Uint64(src)
			// Byte k of deltas is the delta of varint k as an int8, should
			// varint k be one byte long: lowBits*0xff spreads each sign bit
			// over its byte without carrying into the next.
			deltas := g>>1&magnitude ^ g&lowBits*0xff
			ones := bits.TrailingZeros64(g&continues) / 8
			// The width-4 chain runs in 64 bits too and stores the low half:
			// the low 32 bits of a sum are the sum of the low 32 bits.
			if ones == 8 && w == 4 {
				out := dst[4*i : 4*i+32]
				prev += uint64(int64(int8(deltas)))
				binary.LittleEndian.PutUint32(out[0:], uint32(prev))
				prev += uint64(int64(int8(deltas >> 8)))
				binary.LittleEndian.PutUint32(out[4:], uint32(prev))
				prev += uint64(int64(int8(deltas >> 16)))
				binary.LittleEndian.PutUint32(out[8:], uint32(prev))
				prev += uint64(int64(int8(deltas >> 24)))
				binary.LittleEndian.PutUint32(out[12:], uint32(prev))
				prev += uint64(int64(int8(deltas >> 32)))
				binary.LittleEndian.PutUint32(out[16:], uint32(prev))
				prev += uint64(int64(int8(deltas >> 40)))
				binary.LittleEndian.PutUint32(out[20:], uint32(prev))
				prev += uint64(int64(int8(deltas >> 48)))
				binary.LittleEndian.PutUint32(out[24:], uint32(prev))
				prev += uint64(int64(int8(deltas >> 56)))
				binary.LittleEndian.PutUint32(out[28:], uint32(prev))
				src = src[8:]
				i += 8
				continue
			}
			for k := 0; k < ones; k++ {
				prev += uint64(int64(int8(deltas >> (8 * k))))
				d.putWord(dst, i, prev)
				i++
			}
			src = src[ones:]
			if ones == 8 {
				continue
			}
		}
		zz, used := binary.Uvarint(src)
		if used <= 0 {
			return fmt.Errorf("%w: truncated or overlong varint at word %d", ErrCorrupt, i)
		}
		src = src[used:]
		prev += zz>>1 ^ -(zz & 1)
		d.putWord(dst, i, prev)
		i++
	}
	tail := dst[n*w:]
	if len(src) != len(tail) {
		return fmt.Errorf("%w: %d trailing bytes, want %d", ErrCorrupt, len(src), len(tail))
	}
	copy(tail, src)
	return nil
}
