package storage

import (
	"fmt"
	"slices"
	"sync"
	"time"
)

// This file is the blocking client API wrapped around the storage filter's
// asynchronous message protocol. Any goroutine may call these methods.

// Create declares a new immutable array across the whole storage network.
// Every byte of the array starts unwritten.
func (s *Store) Create(name string, size, blockSize int64) error {
	// One shared ack channel, sized for every peer, replaces a channel per
	// peer: the fan-in order does not matter, only that all acks arrive.
	ack := ackChan(len(s.peers))
	for _, p := range s.peers {
		m := createPool.Get().(*msgCreateArr)
		m.info = ArrayInfo{Name: name, Size: size, BlockSize: blockSize}
		m.ack = ack
		p.post(m)
	}
	return collectAcks(ack, len(s.peers))
}

// Delete removes an array from every node. It fails if any node still holds
// leases on it.
func (s *Store) Delete(name string) error {
	ack := ackChan(len(s.peers))
	for _, p := range s.peers {
		m := deletePool.Get().(*msgDeleteArr)
		m.name = name
		m.ack = ack
		p.post(m)
	}
	err := collectAcks(ack, len(s.peers))
	if err == nil && s.cfg.Shard != nil {
		// Drop the array from the cluster tier exactly once, from the
		// initiating store, after the last push of it any store started
		// has returned; peers that miss the delete serve at most
		// stale-epoch bytes, which readers reject.
		s.drains.deleted(s.cfg.Shard, name)
	}
	return err
}

// ackPool recycles broadcast ack channels. A channel is returned only after
// every expected ack has been received, so a pooled channel is always empty.
var ackPool sync.Pool

func ackChan(n int) chan error {
	if c, _ := ackPool.Get().(chan error); c != nil && cap(c) >= n {
		return c
	}
	return make(chan error, n)
}

func collectAcks(ack chan error, n int) error {
	var first error
	for i := 0; i < n; i++ {
		if err := <-ack; err != nil && first == nil {
			first = err
		}
	}
	ackPool.Put(ack)
	return first
}

// Request leases the interval [lo, hi) of an array with the given
// permission, blocking until it can be granted. Read leases block until the
// interval has been written and is resident; write leases fail on any
// overlap with already-written data (immutability).
func (s *Store) Request(array string, lo, hi int64, perm Perm) (*Lease, error) {
	c := reqPool.Get().(*cmdRequest)
	c.array, c.lo, c.hi, c.perm = array, lo, hi, perm
	return s.request(c)
}

// RequestBlock leases a whole block by index. The span is resolved inside
// the storage loop, so no metadata round-trip precedes the request.
func (s *Store) RequestBlock(array string, block int, perm Perm) (*Lease, error) {
	c := reqPool.Get().(*cmdRequest)
	c.array, c.block, c.byBlock, c.perm = array, block, true, perm
	return s.request(c)
}

// request posts a pooled command and waits for its single reply. The loop
// returns the command struct to its pool; the reply channel comes back here
// once the reply has been received.
func (s *Store) request(c *cmdRequest) (*Lease, error) {
	reply := leaseReplyPool.Get().(chan leaseResult)
	c.reply = reply
	// The loop recycles c before the reply lands; capture the label first.
	var array string
	if s.cfg.Trace.Enabled() {
		array = c.array
	}
	start := time.Now()
	s.post(c)
	res := <-reply
	leaseReplyPool.Put(reply)
	s.metrics.leaseWait.Observe(time.Since(start).Seconds())
	if array != "" {
		s.traceGrant(array, start, time.Now(), res.err)
	}
	return res.lease, res.err
}

// Prefetch asynchronously pulls the blocks covering [lo, hi) toward this
// node's memory. It never blocks and never fails; a later Request reaps the
// benefit.
func (s *Store) Prefetch(array string, lo, hi int64) {
	c := prefetchPool.Get().(*cmdPrefetch)
	c.array, c.lo, c.hi = array, lo, hi
	s.post(c)
}

// PrefetchBlock prefetches one block by index.
func (s *Store) PrefetchBlock(array string, block int) {
	c := prefetchPool.Get().(*cmdPrefetch)
	c.array, c.block, c.byBlock = array, block, true
	s.post(c)
}

// Flush writes this node's fully-written, not-yet-persisted resident blocks
// of the array to the scratch directory (the paper's explicit write-back),
// blocking until the I/O filters finish.
func (s *Store) Flush(array string) error {
	reply := make(chan error, 1)
	s.post(cmdFlush{array: array, reply: reply})
	return <-reply
}

// Evict explicitly drops a resident block from this node's memory — the
// paper's programmer-driven memory management. It fails if the block is
// leased, has I/O in flight, or is the only copy anywhere (flush first).
// Evicting a non-resident block succeeds (idempotent).
func (s *Store) Evict(array string, block int) error {
	reply := make(chan error, 1)
	s.post(cmdEvict{array: array, block: block, reply: reply})
	return <-reply
}

// Resident reports, for each ref, whether this node holds that whole block in
// memory; an unknown array or block is not resident. The answers land in out,
// grown to len(refs) if shorter, so a caller that reuses out allocates
// nothing. It is the question a scheduling pick asks about its candidates.
func (s *Store) Resident(refs []BlockRef, out []bool) []bool {
	out = slices.Grow(out[:0], len(refs))[:len(refs)]
	c := residentPool.Get().(*cmdResident)
	c.refs, c.out = refs, out
	done := c.done
	s.post(c)
	<-done
	*c = cmdResident{done: done}
	residentPool.Put(c)
	return out
}

// Stats returns cumulative counters.
func (s *Store) Stats() Stats {
	reply := make(chan Stats, 1)
	s.post(cmdStats{reply: reply})
	return <-reply
}

// Info returns the metadata of an array.
func (s *Store) Info(array string) (ArrayInfo, error) {
	reply := make(chan infoResult, 1)
	s.post(cmdInfo{array: array, reply: reply})
	res := <-reply
	return res.info, res.err
}

// Close shuts the store down. Outstanding requests fail with ErrClosed.
// Every block buffer goes back to the arena: an unleased one now, a leased
// one when its last lease is released.
func (s *Store) Close() {
	s.inbox.close()
	<-s.done
	s.io.stop()
	s.files.closeAll()
	s.left.once.Do(func() {
		for _, b := range s.left.unleased {
			sharedArena.Put(b)
		}
		s.left.unleased = nil
		close(s.left.stopped)
	})
}

// ---- typed helpers ----

// PutFloat64s encodes vals into a write lease's data (little endian).
// The lease must span exactly 8*len(vals) bytes.
func PutFloat64s(l *Lease, vals []float64) {
	if len(l.Data) != 8*len(vals) {
		panic(fmt.Sprintf("storage: PutFloat64s: lease %d bytes, %d values", len(l.Data), len(vals)))
	}
	EncodeFloat64s(l.Data, vals)
}

// GetFloat64s decodes a lease's data as float64s.
func GetFloat64s(l *Lease) []float64 { return DecodeFloat64s(l.Data) }

// DecodeFloat64s decodes little-endian float64s from raw bytes.
func DecodeFloat64s(data []byte) []float64 {
	if len(data)%8 != 0 {
		panic(fmt.Sprintf("storage: DecodeFloat64s: %d bytes not a multiple of 8", len(data)))
	}
	out := make([]float64, len(data)/8)
	DecodeFloat64sInto(out, data)
	return out
}

// WriteArray is a convenience that creates an array (blockSize == len(data)
// if bs <= 0), writes it block by block, and releases.
func (s *Store) WriteArray(name string, data []byte, blockSize int64) error {
	if blockSize <= 0 {
		blockSize = int64(len(data))
	}
	if err := s.Create(name, int64(len(data)), blockSize); err != nil {
		return err
	}
	info := ArrayInfo{Name: name, Size: int64(len(data)), BlockSize: blockSize}
	for b := 0; b < info.NumBlocks(); b++ {
		bs := info.BlockSpan(b)
		l, err := s.Request(name, bs.Lo, bs.Hi, PermWrite)
		if err != nil {
			return err
		}
		copy(l.Data, data[bs.Lo:bs.Hi])
		l.Release()
	}
	return nil
}

// ReadAll is a convenience that reads an entire array into a fresh slice.
// The result is sized up front and each block is copied out straight into
// its interval — one allocation, one copy per block.
func (s *Store) ReadAll(name string) ([]byte, error) {
	info, err := s.Info(name)
	if err != nil {
		return nil, err
	}
	out := make([]byte, info.Size)
	for b := 0; b < info.NumBlocks(); b++ {
		bs := info.BlockSpan(b)
		if err := s.readBlockInto(name, b, out[bs.Lo:bs.Hi]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// readBlockInto is the copy-out read: it copies whole block `block` of
// array into dst, which must be exactly as long. A resident block is copied
// under the storage loop; a block durable on this node's scratch is read by
// an I/O filter straight into dst; neither installs or evicts anything.
// Anything else — a block on a peer, on its way in, or not yet written —
// is read through a lease, as Request would, and copied out of it.
func (s *Store) readBlockInto(array string, block int, dst []byte) error {
	if len(dst) == 0 {
		return fmt.Errorf("storage: copy of %q block %d into no bytes", array, block)
	}
	c := reqPool.Get().(*cmdRequest)
	c.array, c.block, c.byBlock, c.perm, c.dst = array, block, true, PermRead, dst
	l, err := s.request(c)
	if l != nil {
		copy(dst, l.Data)
		l.Release()
	}
	return err
}
