package compress

import (
	"encoding/binary"
	"fmt"
)

// floatShuffleCodec is the registered FloatShuffle instance (see Default).
var floatShuffleCodec = FloatShuffle{}

// FloatShuffle targets float64 payloads: vectors, CRS value sections,
// checkpoint blocks. Stage one transposes the payload into byte planes —
// plane k holds byte k of every 8-byte word — so the slowly-varying sign,
// exponent, and high-mantissa bytes of numerically smooth data land next
// to each other. Stage two runs a small LZ window matcher over the planes,
// where those now-repetitive bytes actually compress. Bytes past the last
// full word pass through the LZ stage unshuffled.
type FloatShuffle struct{}

// ID returns IDFloatShuffle.
func (FloatShuffle) ID() uint8 { return IDFloatShuffle }

// Name returns "fshuf".
func (FloatShuffle) Name() string { return "fshuf" }

// Encode appends shuffle+LZ of src to dst.
func (FloatShuffle) Encode(dst, src []byte) []byte {
	return lzEncode(dst, shuffle(src))
}

// DecodeInto reverses Encode, validating every match reference against the
// already-produced output. The byte planes are expanded into a transient
// buffer the size of dst and transposed from there.
func (FloatShuffle) DecodeInto(dst, src []byte) error {
	planes := make([]byte, len(dst))
	if err := lzDecode(planes, src); err != nil {
		return err
	}
	unshuffle(dst, planes)
	return nil
}

// MaxDecodedLen: a 3-byte match token expands to at most lzMaxMatch bytes.
func (FloatShuffle) MaxDecodedLen(srcLen int) int { return (srcLen/3 + 1) * lzMaxMatch }

// shuffle transposes src into 8 byte planes; the tail (len%8) is appended
// verbatim.
func shuffle(src []byte) []byte {
	n := len(src) / 8
	out := make([]byte, len(src))
	for k := 0; k < 8; k++ {
		plane := out[k*n : (k+1)*n]
		for i := 0; i < n; i++ {
			plane[i] = src[i*8+k]
		}
	}
	copy(out[8*n:], src[8*n:])
	return out
}

// unshuffle inverts shuffle into out, which is as long as src: one pass that
// gathers byte i of every plane into word i, so out is written once, in
// order, a word at a time.
func unshuffle(out, src []byte) {
	n := len(src) / 8
	plane := func(k int) []byte { return src[k*n:][:n] }
	p0, p1, p2, p3, p4, p5, p6, p7 := plane(0), plane(1), plane(2), plane(3), plane(4), plane(5), plane(6), plane(7)
	words := out[:8*n]
	for i := 0; i < n; i++ {
		w := uint64(p0[i]) | uint64(p1[i])<<8 | uint64(p2[i])<<16 | uint64(p3[i])<<24 |
			uint64(p4[i])<<32 | uint64(p5[i])<<40 | uint64(p6[i])<<48 | uint64(p7[i])<<56
		binary.LittleEndian.PutUint64(words[8*i:], w)
	}
	copy(out[8*n:], src[8*n:])
}

// ---- small LZ window matcher ----
//
// Token stream:
//
//	control byte 0x00..0x7F: literal run of control+1 bytes follows
//	control byte 0x80..0xFF: match of length (control&0x7F)+4 at a
//	                         2-byte little-endian backward offset (1..65535)
//
// Greedy matching against a 2^15-entry hash table of 4-byte keys. The
// window is the offset range, 64 KiB. This is deliberately tiny — the win
// comes from the byte planes being repetitive, not from clever parsing.
const (
	lzMinMatch  = 4
	lzMaxMatch  = lzMinMatch + 0x7F
	lzMaxOffset = 1 << 16
	lzHashBits  = 15
)

func lzHash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - lzHashBits)
}

// lzEncode appends the token stream for src to dst.
func lzEncode(dst, src []byte) []byte {
	var table [1 << lzHashBits]int32
	for i := range table {
		table[i] = -1
	}
	litStart := 0
	flushLits := func(end int) {
		for litStart < end {
			run := end - litStart
			if run > 128 {
				run = 128
			}
			dst = append(dst, byte(run-1))
			dst = append(dst, src[litStart:litStart+run]...)
			litStart += run
		}
	}
	i := 0
	for i+lzMinMatch <= len(src) {
		key := lzHash(binary.LittleEndian.Uint32(src[i:]))
		cand := table[key]
		table[key] = int32(i)
		if cand >= 0 && i-int(cand) < lzMaxOffset &&
			binary.LittleEndian.Uint32(src[cand:]) == binary.LittleEndian.Uint32(src[i:]) {
			length := lzMinMatch
			for i+length < len(src) && length < lzMaxMatch && src[int(cand)+length] == src[i+length] {
				length++
			}
			flushLits(i)
			dst = append(dst, 0x80|byte(length-lzMinMatch), 0, 0)
			binary.LittleEndian.PutUint16(dst[len(dst)-2:], uint16(i-int(cand)))
			i += length
			litStart = i
			continue
		}
		i++
	}
	flushLits(len(src))
	return dst
}

// lzDecode expands a token stream to exactly len(out) bytes, rejecting any
// token that reads before the output start or writes past its end.
func lzDecode(out, src []byte) error {
	n := 0 // bytes of out produced
	for len(src) > 0 {
		ctrl := src[0]
		src = src[1:]
		if ctrl < 0x80 {
			run := int(ctrl) + 1
			if run > len(src) {
				return fmt.Errorf("%w: literal run of %d overruns input", ErrCorrupt, run)
			}
			if n+run > len(out) {
				return fmt.Errorf("%w: output exceeds declared length %d", ErrCorrupt, len(out))
			}
			n += copy(out[n:], src[:run])
			src = src[run:]
			continue
		}
		if len(src) < 2 {
			return fmt.Errorf("%w: truncated match token", ErrCorrupt)
		}
		length := int(ctrl&0x7F) + lzMinMatch
		offset := int(binary.LittleEndian.Uint16(src))
		src = src[2:]
		if offset == 0 || offset > n {
			return fmt.Errorf("%w: match offset %d outside %d decoded bytes", ErrCorrupt, offset, n)
		}
		if n+length > len(out) {
			return fmt.Errorf("%w: output exceeds declared length %d", ErrCorrupt, len(out))
		}
		if offset >= length {
			n += copy(out[n:n+length], out[n-offset:])
			continue
		}
		// Byte-at-a-time: the match overlaps its own output.
		for end := n + length; n < end; n++ {
			out[n] = out[n-offset]
		}
	}
	if n != len(out) {
		return fmt.Errorf("%w: decoded %d bytes, want %d", ErrCorrupt, n, len(out))
	}
	return nil
}
