package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// Zero-copy float64 views over lease bytes.
//
// The storage layer's wire and scratch format for vector arrays is a flat
// little-endian float64 stream. On a little-endian machine a lease's bytes
// ARE the float64s — DecodeFloat64s' per-element decode loop is a pure
// allocator tax on the hot path. Float64View reinterprets the bytes in
// place via an unsafe cast, guarded by a process-wide endianness check and
// a per-call alignment check, with the decoded-copy path as the fallback on
// exotic hosts. The executors in internal/core run on views, so the
// steady-state iteration moves no vector bytes at all.
//
// Lifetime rule: a view aliases the lease's block buffer, which the store
// may recycle through the buffer arena once the lease is released. A view
// is therefore valid ONLY until the lease's Release or Abandon. Build with
// `-tags doocdebug` to turn violations into detectable poison (see
// view_debug.go).

// littleEndianCPU reports whether this machine stores multi-byte words
// little-endian — the precondition for aliasing lease bytes as []float64.
// Computed once at init.
var littleEndianCPU = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// castFloat64s reinterprets b as a []float64 without copying. It fails
// (ok=false) on a big-endian host, a length that is not a multiple of 8, or
// a buffer whose base is not 8-byte aligned; callers fall back to copying.
func castFloat64s(b []byte) ([]float64, bool) {
	if !littleEndianCPU || len(b)%8 != 0 {
		return nil, false
	}
	if len(b) == 0 {
		return nil, true
	}
	p := unsafe.Pointer(unsafe.SliceData(b))
	if uintptr(p)%8 != 0 {
		return nil, false
	}
	return unsafe.Slice((*float64)(p), len(b)/8), true
}

// Float64View returns lease l's bytes as a []float64, without copying when
// the machine allows it. The view is valid only until l.Release()/Abandon();
// after that the underlying buffer may be recycled and overwritten by an
// unrelated block. On hosts where the in-place cast is unsafe the view is a
// decoded copy (bit-identical values, no lifetime hazard).
func Float64View(l *Lease) []float64 {
	if l.released {
		panic(fmt.Sprintf("storage: Float64View of released %s lease on %s block %d", l.Perm, l.Array, l.Block))
	}
	if v, ok := viewDebugMake(l); ok {
		return v
	}
	if v, ok := castFloat64s(l.Data); ok {
		return v
	}
	return DecodeFloat64s(l.Data)
}

// Float64WriteView returns a writable float64 view over a write lease's
// bytes, or (nil, false) when in-place aliasing is unavailable — the caller
// then computes into scratch and publishes via PutFloat64s. Values stored
// through the view are in the array's wire format directly (no encode
// step). Same lifetime rule as Float64View.
func Float64WriteView(l *Lease) ([]float64, bool) {
	if l.released {
		panic(fmt.Sprintf("storage: Float64WriteView of released %s lease on %s block %d", l.Perm, l.Array, l.Block))
	}
	if l.Perm != PermWrite {
		panic(fmt.Sprintf("storage: Float64WriteView needs a write lease, got %s on %s", l.Perm, l.Array))
	}
	if viewDebugForceCopy {
		return nil, false
	}
	return castFloat64s(l.Data)
}

// EncodeFloat64s writes vals into dst in the little-endian wire format.
// len(dst) must be exactly 8*len(vals).
func EncodeFloat64s(dst []byte, vals []float64) {
	if len(dst) != 8*len(vals) {
		panic(fmt.Sprintf("storage: EncodeFloat64s: %d bytes for %d values", len(dst), len(vals)))
	}
	if v, ok := castFloat64s(dst); ok {
		copy(v, vals)
		return
	}
	for i, f := range vals {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(f))
	}
}

// DecodeFloat64sInto decodes little-endian float64s from data into dst.
// len(data) must be exactly 8*len(dst).
func DecodeFloat64sInto(dst []float64, data []byte) {
	if len(data) != 8*len(dst) {
		panic(fmt.Sprintf("storage: DecodeFloat64sInto: %d bytes for %d values", len(data), len(dst)))
	}
	if v, ok := castFloat64s(data); ok {
		copy(dst, v)
		return
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
}

// ReadFloat64s reads an entire float64 array into dst block by block, each
// a copy-out read (ReadBlockFloat64s). len(dst) must be Size/8, and the
// block size a multiple of 8.
func (s *Store) ReadFloat64s(name string, dst []float64) error {
	info, err := s.Info(name)
	if err != nil {
		return err
	}
	if int64(8*len(dst)) != info.Size || info.BlockSize%8 != 0 {
		return fmt.Errorf("storage: ReadFloat64s of %q: %d values for %d bytes in blocks of %d", name, len(dst), info.Size, info.BlockSize)
	}
	for b := 0; b < info.NumBlocks(); b++ {
		bs := info.BlockSpan(b)
		if err := s.ReadBlockFloat64s(name, b, dst[bs.Lo/8:bs.Hi/8]); err != nil {
			return err
		}
	}
	return nil
}

// ReadBlockFloat64s copies block `block` of a float64 array into dst, which
// must hold exactly the block's values. It is a copy-out read: a resident
// block is copied under the storage loop, a block on this node's scratch is
// read by an I/O filter straight into dst (its frame CRC verified), and
// neither installs a block or evicts one — a reader of many spilled blocks
// keeps a resident footprint of dst alone. Other blocks are read through a
// lease. dst is the caller's before and after the call.
func (s *Store) ReadBlockFloat64s(array string, block int, dst []float64) error {
	if b, ok := float64Bytes(dst); ok {
		return s.readBlockInto(array, block, b)
	}
	buf := sharedArena.Get(8 * len(dst))
	defer sharedArena.Put(buf)
	if err := s.readBlockInto(array, block, buf); err != nil {
		return err
	}
	DecodeFloat64sInto(dst, buf)
	return nil
}

// float64Bytes is v's memory as the little-endian bytes a float64 array
// stores, where the machine makes them the same thing.
func float64Bytes(v []float64) ([]byte, bool) {
	if !littleEndianCPU || len(v) == 0 {
		return nil, false
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v)), true
}
