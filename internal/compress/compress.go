// Package compress is the middleware's block-compression subsystem. The
// paper's cost model is bytes moved — iterated SpMV out-of-core is bound by
// the SSDs and the interconnect — so every byte not written to scratch or
// shipped between nodes is reclaimed iteration time. This package supplies
// dependency-free codecs specialized for the payloads the runtime actually
// moves (monotone CRS row pointers, sorted column indices, float64 vector
// and value streams) behind a self-describing framed container, so any
// layer can decode any block regardless of which codec produced it.
//
// Codecs are registered in a process-wide registry keyed by a one-byte ID
// that travels in the frame header. The container carries the codec ID, the
// original length, and a CRC32-C of the original bytes: a truncated or
// bit-flipped frame decodes to an attributed error, never to wrong bytes.
//
// Compression is advisory, not guaranteed: EncodeAdaptive falls back to the
// Raw codec whenever a block compresses worse than ~1.1x, so incompressible
// data (random dense vectors) pays only the 18-byte frame header and no
// encode cost on the read path.
package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
)

// Codec is one pluggable block transform. Encode appends the encoded form
// of src to dst and returns the extended slice; DecodeInto reverses it into
// memory the caller supplies, so where the decoded bytes live — a worker's
// scratch, an arena buffer about to become a resident block — is the
// caller's choice and decoding allocates nothing for them. Implementations
// must tolerate arbitrary src bytes in DecodeInto: corrupt input returns an
// error wrapping ErrCorrupt, never panics, never writes outside dst.
type Codec interface {
	// ID is the codec's wire identity, carried in every frame header.
	ID() uint8
	// Name is the codec's human name (flag values, metric labels).
	Name() string
	// Encode appends the encoded src to dst.
	Encode(dst, src []byte) []byte
	// DecodeInto decodes src into dst; len(dst) is the original length. On
	// success every byte of dst has been written; on error dst holds
	// garbage.
	DecodeInto(dst, src []byte) error
	// MaxDecodedLen bounds the original length of any srcLen-byte encoding.
	// FrameRawLen holds a frame header's claim against it, so a forged
	// length is refused before a buffer is sized from it.
	MaxDecodedLen(srcLen int) int
}

// Well-known codec IDs. IDs are wire format: never renumber.
const (
	IDRaw          uint8 = 0 // identity
	IDDeltaVarint  uint8 = 1 // zigzag delta varint over 8-byte words
	IDDeltaVarint3 uint8 = 2 // zigzag delta varint over 4-byte words
	IDFloatShuffle uint8 = 3 // byte-plane transpose + LZ window matcher
)

// ErrCorrupt is wrapped by every decode failure: a frame that is truncated,
// bit-flipped, or structurally invalid. Storage classifies it as
// non-transient (retrying cannot fix bad bytes on disk).
var ErrCorrupt = errors.New("compress: corrupt frame")

// crcTable is the Castagnoli polynomial, matching the CRS file format.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ---- registry ----

var (
	regMu    sync.RWMutex
	byID     = map[uint8]Codec{}
	byName   = map[string]Codec{}
	regOrder []uint8
)

// Register adds a codec to the process-wide registry. Registering a
// duplicate ID or name panics: codec identity is wire format.
func Register(c Codec) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := byID[c.ID()]; dup {
		panic(fmt.Sprintf("compress: codec ID %d registered twice", c.ID()))
	}
	if _, dup := byName[c.Name()]; dup {
		panic(fmt.Sprintf("compress: codec name %q registered twice", c.Name()))
	}
	byID[c.ID()] = c
	byName[c.Name()] = c
	regOrder = append(regOrder, c.ID())
}

// ByID resolves a codec by its wire ID.
func ByID(id uint8) (Codec, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	c, ok := byID[id]
	return c, ok
}

// ByName resolves a codec by name ("raw", "delta64", "delta32", "fshuf").
func ByName(name string) (Codec, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	c, ok := byName[name]
	return c, ok
}

// Names lists the registered codec names in ID order (flag help text).
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	ids := append([]uint8(nil), regOrder...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		out = append(out, byID[id].Name())
	}
	return out
}

// Mask returns the capability bitmask of all registered codecs with IDs < 8
// — the byte exchanged in the remote handshake.
func Mask() uint8 {
	regMu.RLock()
	defer regMu.RUnlock()
	var m uint8
	for id := range byID {
		if id < 8 {
			m |= 1 << id
		}
	}
	return m
}

// Default returns the codec the runtime uses when compression is enabled
// without an explicit choice: FloatShuffle, which wins on the float64-heavy
// payloads that dominate scratch and wire traffic and bails to raw
// elsewhere via EncodeAdaptive.
func Default() Codec { return floatShuffleCodec }

func init() {
	Register(Raw{})
	Register(DeltaVarint{Width: 8, id: IDDeltaVarint, name: "delta64"})
	Register(DeltaVarint{Width: 4, id: IDDeltaVarint3, name: "delta32"})
	Register(floatShuffleCodec)
}

// ---- Raw codec ----

// Raw is the identity codec: frame overhead only, no transform. It is the
// adaptive bail-out target and the negotiated floor between remote peers.
type Raw struct{}

// ID returns IDRaw.
func (Raw) ID() uint8 { return IDRaw }

// Name returns "raw".
func (Raw) Name() string { return "raw" }

// Encode appends src unchanged.
func (Raw) Encode(dst, src []byte) []byte { return append(dst, src...) }

// DecodeInto verifies the length and copies src.
func (Raw) DecodeInto(dst, src []byte) error {
	if len(src) != len(dst) {
		return fmt.Errorf("%w: raw payload is %d bytes, header says %d", ErrCorrupt, len(src), len(dst))
	}
	copy(dst, src)
	return nil
}

// MaxDecodedLen is srcLen: the identity.
func (Raw) MaxDecodedLen(srcLen int) int { return srcLen }

// ---- framed container ----

// Frame layout (little endian):
//
//	offset  size  field
//	0       4     magic "DOZ1"
//	4       1     codec ID
//	5       1     flags (reserved, 0)
//	6       8     original (decoded) length
//	14      4     CRC32-C of the original bytes
//	18      ...   codec payload
const (
	frameMagic     = "DOZ1"
	FrameHeaderLen = 18
)

// EncodeFrame encodes src with c inside a self-describing frame.
func EncodeFrame(c Codec, src []byte) []byte {
	return AppendFrame(make([]byte, 0, FrameHeaderLen+len(src)/2+64), c, src)
}

// AppendFrame appends the frame encoding src with c to dst and returns the
// extended slice. Callers with a reusable destination buffer (the storage
// spill path, the wire encoder) avoid EncodeFrame's per-call allocation.
func AppendFrame(dst []byte, c Codec, src []byte) []byte {
	var hdr [FrameHeaderLen]byte
	copy(hdr[:], frameMagic)
	hdr[4] = c.ID()
	hdr[5] = 0
	binary.LittleEndian.PutUint64(hdr[6:], uint64(len(src)))
	binary.LittleEndian.PutUint32(hdr[14:], crc32.Checksum(src, crcTable))
	return c.Encode(append(dst, hdr[:]...), src)
}

// EncodeAdaptive encodes src with c but bails out to the Raw codec when the
// result saves less than ~10% (raw/compressed ratio below 1.1) — or, for a
// long block, when its head alone does (AppendFrameAdaptive): random or
// already-dense blocks then cost one memcpy and 18 header bytes instead of
// a pointless decode on every future read. It returns the frame and the
// codec actually used.
func EncodeAdaptive(c Codec, src []byte) ([]byte, Codec) {
	return AppendFrameAdaptive(nil, c, src)
}

// adaptiveProbeLen is the prefix of a block AppendFrameAdaptive encodes first
// when the block is at least four times as long: a multiple of every
// codec's word, long enough for the LZ window to find what repeats, short
// enough that giving up on a block costs a fraction of encoding it.
const adaptiveProbeLen = 4 << 10

// KeepsCodec is the adaptive rule: an encoding is worth its decode on every
// future read only when raw is at least 1.1 × what it takes, frame header
// included.
func KeepsCodec(rawLen, encodedLen int) bool {
	return int64(rawLen)*10 >= int64(encodedLen)*11
}

// AppendFrameAdaptive is EncodeAdaptive appending into dst. A long block is
// probed first: when its first adaptiveProbeLen bytes alone miss the ratio,
// the rest is not run through the codec at all — a spilled vector of
// full-mantissa floats costs the probe, not a shuffle and a match search
// over every byte it holds. A block whose head compresses is encoded whole
// and judged whole, as a short block is. On bail-out the attempted bytes are
// truncated in place and the raw frame written over them, so the bail-out
// path costs no second buffer.
func AppendFrameAdaptive(dst []byte, c Codec, src []byte) ([]byte, Codec) {
	if c == nil || c.ID() == IDRaw {
		return AppendFrame(dst, Raw{}, src), Raw{}
	}
	base := len(dst)
	if len(src) >= 4*adaptiveProbeLen {
		probe := c.Encode(dst, src[:adaptiveProbeLen])
		dst = probe[:base]
		if !KeepsCodec(adaptiveProbeLen, len(probe)-base) {
			return AppendFrame(dst, Raw{}, src), Raw{}
		}
	}
	out := AppendFrame(dst, c, src)
	if KeepsCodec(len(src), len(out)-base) {
		return out, c
	}
	return AppendFrame(out[:base], Raw{}, src), Raw{}
}

// FrameRawLen checks a frame's header and returns the codec that wrote it and
// the original length it claims, which is what DecodeFrameInto's dst must be
// sized to. A length no encoding of the payload's size can decode to is
// refused here, so a forged header never sizes a buffer.
func FrameRawLen(frame []byte) (Codec, int, error) {
	return FrameHeader(frame, len(frame))
}

// FrameHeader is FrameRawLen for a reader that holds a frame's header apart
// from its payload: hdr begins with the header, and frameLen is the length of
// the whole frame, which the payload bound is checked against.
func FrameHeader(hdr []byte, frameLen int) (Codec, int, error) {
	if len(hdr) < FrameHeaderLen || frameLen < FrameHeaderLen {
		return nil, 0, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrCorrupt, min(len(hdr), frameLen), FrameHeaderLen)
	}
	if string(hdr[:4]) != frameMagic {
		return nil, 0, fmt.Errorf("%w: bad magic %q", ErrCorrupt, hdr[:4])
	}
	if hdr[5] != 0 {
		return nil, 0, fmt.Errorf("%w: unknown flags %#x", ErrCorrupt, hdr[5])
	}
	c, ok := ByID(hdr[4])
	if !ok {
		return nil, 0, fmt.Errorf("%w: unknown codec ID %d", ErrCorrupt, hdr[4])
	}
	rawLen := binary.LittleEndian.Uint64(hdr[6:])
	if rawLen > uint64(c.MaxDecodedLen(frameLen-FrameHeaderLen)) {
		return c, 0, fmt.Errorf("%w: codec %s: %d payload bytes cannot decode to %d", ErrCorrupt, c.Name(), frameLen-FrameHeaderLen, rawLen)
	}
	return c, int(rawLen), nil
}

// DecodeFrameInto decodes a framed block into dst, which the caller sized
// from FrameRawLen, and returns the codec that produced the frame. With
// verify the decoded bytes are held against the frame's CRC; a caller passes
// false only when a checksum over the frame itself has already vouched for
// these bytes (sparse's block CRC under TrustStructure). Every failure wraps
// ErrCorrupt and leaves dst holding garbage.
func DecodeFrameInto(dst, frame []byte, verify bool) (Codec, error) {
	c, rawLen, err := FrameRawLen(frame)
	if err != nil {
		return c, err
	}
	if len(dst) != rawLen {
		return c, fmt.Errorf("%w: codec %s frame holds %d bytes, caller expects %d", ErrCorrupt, c.Name(), rawLen, len(dst))
	}
	if err := c.DecodeInto(dst, frame[FrameHeaderLen:]); err != nil {
		return c, fmt.Errorf("codec %s: %w", c.Name(), err)
	}
	if verify {
		return c, CheckFrameCRC(frame, dst, c)
	}
	return c, nil
}

// CheckFrameCRC holds a frame's decoded bytes against the CRC in its header;
// hdr begins with the header (FrameHeader vouched for it) and c is the codec
// it names.
func CheckFrameCRC(hdr, decoded []byte, c Codec) error {
	want := binary.LittleEndian.Uint32(hdr[14:])
	if got := crc32.Checksum(decoded, crcTable); got != want {
		return fmt.Errorf("%w: codec %s CRC mismatch (frame %08x, decoded %08x)", ErrCorrupt, c.Name(), want, got)
	}
	return nil
}

// RawPayload returns the original bytes of a frame the Raw codec wrote —
// what adaptive encoding leaves of incompressible data — where they lie
// inside it, held against the frame's CRC with verify. A caller that can use
// the bytes in place reads such a frame without decoding it.
func RawPayload(frame []byte, verify bool) ([]byte, error) {
	c, rawLen, err := FrameRawLen(frame)
	if err != nil {
		return nil, err
	}
	payload := frame[FrameHeaderLen:]
	if c.ID() != IDRaw || len(payload) != rawLen {
		return nil, fmt.Errorf("%w: codec %s frame of %d payload bytes is not %d bytes stored raw", ErrCorrupt, c.Name(), len(payload), rawLen)
	}
	if verify {
		if err := CheckFrameCRC(frame, payload, c); err != nil {
			return nil, err
		}
	}
	return payload, nil
}

// DecodeFrame is DecodeFrameInto into fresh memory, for callers with nowhere
// to put the result (tools, probes, tests).
func DecodeFrame(frame []byte) ([]byte, Codec, error) {
	c, rawLen, err := FrameRawLen(frame)
	if err != nil {
		return nil, c, err
	}
	out := make([]byte, rawLen)
	if _, err := DecodeFrameInto(out, frame, true); err != nil {
		return nil, c, err
	}
	return out, c, nil
}

// FrameCodec peeks at a frame's codec without decoding. It errors on
// anything shorter than a header or with a bad magic.
func FrameCodec(frame []byte) (Codec, error) {
	if len(frame) < FrameHeaderLen || string(frame[:4]) != frameMagic {
		return nil, fmt.Errorf("%w: not a frame", ErrCorrupt)
	}
	c, ok := ByID(frame[4])
	if !ok {
		return nil, fmt.Errorf("%w: unknown codec ID %d", ErrCorrupt, frame[4])
	}
	return c, nil
}
