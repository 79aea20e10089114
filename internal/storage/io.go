package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"time"

	"dooc/internal/compress"
)

// ioKind is what an I/O job does with its block.
type ioKind uint8

const (
	// ioInstall reads a block into a fresh arena buffer that becomes the
	// resident block.
	ioInstall ioKind = iota
	// ioCopyOut reads a block straight into a caller's memory; nothing
	// becomes resident.
	ioCopyOut
	// ioSpill writes a resident block to scratch.
	ioSpill
)

// ioJob is one unit of file-system work for the asynchronous I/O filters.
// The filter fills in the outcome and posts the job itself back to the actor
// loop, which recycles it: a job costs no allocation once the pool is warm.
type ioJob struct {
	kind  ioKind
	array string
	block int
	file  *arrayFile
	off   int64 // where the block (flat file) or its record (slot) starts
	// data is the payload of a spill, the destination of a copy-out, and
	// the buffer an install read filled (set by the filter).
	data []byte
	// length is the block's logical length.
	length int64
	// codec, on a spill, compresses the payload into an adaptive frame
	// before it hits the disk. Encoding runs in the I/O filter, off the
	// actor loop, so blocks compress in parallel.
	codec compress.Codec
	// reply, on a copy-out, receives the outcome once the loop has seen it.
	reply chan leaseResult

	// Outcome, filled in by the filter: err is attributed (array, block,
	// path, offset, attempts); retries counts transient failures survived.
	err     error
	retries int
	stats   codecStats
}

var ioJobPool = sync.Pool{New: func() any { return new(ioJob) }}

// ioPool is the set of I/O filter goroutines attached to one storage
// filter. The paper: "Interactions with the filesystem (both read and
// write) are performed by a separate I/O filter ... There should be as many
// I/O filters as is necessary to efficiently use the parallelism contained
// in the I/O subsystem of the machine."
type ioPool struct {
	store   *Store
	workers int
	jobs    *mailbox
	wg      sync.WaitGroup
}

func newIOPool(workers int, s *Store) *ioPool {
	return &ioPool{store: s, workers: workers, jobs: newMailbox()}
}

func (p *ioPool) start() {
	for i := 0; i < p.workers; i++ {
		p.wg.Add(1)
		go p.worker(i)
	}
}

func (p *ioPool) stop() {
	p.jobs.close()
	p.wg.Wait()
}

// submit queues a job; its completion comes back to the loop as the job.
func (p *ioPool) submit(j *ioJob) {
	p.store.metrics.ioQueueDepth.Add(1)
	p.jobs.put(j)
}

// ioWorker is one I/O filter's private scratch: the header of the slot it
// is reading.
type ioWorker struct {
	hdr [slotHeaderLen]byte
}

func (p *ioPool) worker(idx int) {
	defer p.wg.Done()
	w := new(ioWorker)
	for {
		item, ok := p.jobs.get()
		if !ok {
			return
		}
		j := item.(*ioJob)
		p.store.metrics.ioQueueDepth.Add(-1)
		start := time.Now()
		if j.kind == ioSpill {
			p.spill(j)
			p.store.metrics.ioWriteSeconds.Observe(time.Since(start).Seconds())
			p.store.traceIO("spill", j.array, j.block, idx, start, time.Now(), j.err)
		} else {
			if j.kind == ioInstall {
				j.data = sharedArena.Get(int(j.length))
			}
			p.attempt(j, w)
			if j.err != nil && j.kind == ioInstall {
				sharedArena.Put(j.data)
				j.data = nil
			}
			p.store.metrics.ioReadSeconds.Observe(time.Since(start).Seconds())
			p.store.traceIO("load", j.array, j.block, idx, start, time.Now(), j.err)
		}
		p.store.post(j)
	}
}

// spill encodes a spill job's block, when it has a codec, and writes it.
func (p *ioPool) spill(j *ioJob) {
	if j.codec == nil {
		p.attempt(j, nil)
		return
	}
	encStart := time.Now()
	// The record — length prefix, then the frame — is built in a pooled
	// buffer and recycled after the write lands (the completion carries no
	// payload). A bail-out truncates back to the prefix, never before it.
	buf := sharedArena.Get(4 + compress.FrameHeaderLen + len(j.data) + len(j.data)/8 + 64)[:4]
	rec, used := compress.AppendFrameAdaptive(buf, j.codec, j.data)
	p.store.metrics.encodeSeconds.Observe(time.Since(encStart).Seconds())
	binary.LittleEndian.PutUint32(rec, uint32(len(rec)-4))
	j.stats = codecStats{
		framed:      true,
		codecID:     used.ID(),
		rawBytes:    int64(len(j.data)),
		storedBytes: int64(len(rec) - 4),
		bailout:     used.ID() != j.codec.ID(),
	}
	// The adaptive encoder never outgrows raw plus the header; a record that
	// did would overwrite the next block's slot.
	if int64(len(rec)) > j.length+slotHeaderLen {
		j.err = fmt.Errorf("storage: writing %q block %d to %s: a %d-byte record overflows its slot", j.array, j.block, j.file.path, len(rec))
	} else {
		j.data = rec
		p.attempt(j, nil)
	}
	sharedArena.Put(rec)
	j.data = nil
}

// attempt runs one job's file I/O under the retry policy. Every attempt asks
// the fault injector first. A failure is attributed once it is terminal: the
// retries ran out, or it is a fact about the bytes (see transientIOErr).
func (p *ioPool) attempt(j *ioJob, w *ioWorker) {
	op, verb, prep := "read", "reading", "from"
	if j.kind == ioSpill {
		op, verb, prep = "write", "writing", "to"
	}
	for try := 0; ; try++ {
		err := p.store.cfg.Faults.IO(op, j.file.path)
		if err == nil {
			if j.kind == ioSpill {
				err = p.write(j)
			} else {
				err = p.read(j, w)
			}
		}
		if err == nil {
			j.err = nil
			return
		}
		if try >= p.store.cfg.IORetries || !transientIOErr(err) {
			j.err = fmt.Errorf("storage: %s %q block %d %s %s at offset %d (%d attempt(s)): %w",
				verb, j.array, j.block, prep, j.file.path, j.off, try+1, err)
			return
		}
		j.retries++
		time.Sleep(p.retrySleep(try))
	}
}

// retrySleep is the backoff before retry try+1: exponential in try with
// "equal jitter" — uniform in [d/2, d) where d is the deterministic delay.
// The jitter decorrelates workers that failed on the same transient fault,
// so they do not reconverge on the device in a synchronized retry storm.
func (p *ioPool) retrySleep(try int) time.Duration {
	d := p.store.cfg.IORetryBackoff << uint(try)
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// write puts a spill job's bytes — the block, or its slot record — at its
// offset.
func (p *ioPool) write(j *ioJob) error {
	f, err := p.store.files.acquire(j.file)
	if err != nil {
		return err
	}
	defer p.store.files.release(j.file)
	_, err = f.WriteAt(j.data, j.off)
	return err
}

// read is the one read routine: it fills j.data — an arena buffer that
// becomes the resident block, or a caller's memory — with the block's bytes.
// A flat file is read in place. A slot's frame is verified against its CRC:
// a raw frame's payload is read straight into j.data, a compressed one
// through a transient arena buffer into the decoder. Bad bytes — a short record,
// a bad header, a CRC mismatch — wrap compress.ErrCorrupt, which is not
// retried.
func (p *ioPool) read(j *ioJob, w *ioWorker) error {
	f, err := p.store.files.acquire(j.file)
	if err != nil {
		return err
	}
	defer p.store.files.release(j.file)
	dst := j.data
	if !j.file.slotted {
		n, err := f.ReadAt(dst, j.off)
		if err != nil && !(err == io.EOF && n == len(dst)) {
			return fmt.Errorf("read %d bytes at %d: %w", len(dst), j.off, err)
		}
		j.stats = codecStats{}
		return nil
	}
	if err := readFull(f, w.hdr[:], j.off); err != nil {
		return err
	}
	frameLen := int(binary.LittleEndian.Uint32(w.hdr[:]))
	if frameLen > compress.FrameHeaderLen+len(dst) {
		return fmt.Errorf("%w: a %d-byte frame in the slot of a %d-byte block", compress.ErrCorrupt, frameLen, len(dst))
	}
	hdr := w.hdr[4:]
	c, rawLen, err := compress.FrameHeader(hdr, frameLen)
	if err != nil {
		return err
	}
	if rawLen != len(dst) {
		return fmt.Errorf("%w: frame decodes to %d bytes, block is %d", compress.ErrCorrupt, rawLen, len(dst))
	}
	payloadLen := frameLen - compress.FrameHeaderLen
	at := j.off + slotHeaderLen
	if c.ID() == compress.IDRaw {
		if payloadLen != len(dst) {
			return fmt.Errorf("%w: raw frame of %d payload bytes for a %d-byte block", compress.ErrCorrupt, payloadLen, len(dst))
		}
		if err := readFull(f, dst, at); err != nil {
			return err
		}
	} else {
		payload := sharedArena.Get(payloadLen)
		defer sharedArena.Put(payload)
		if err := readFull(f, payload, at); err != nil {
			return err
		}
		decStart := time.Now()
		if err := c.DecodeInto(dst, payload); err != nil {
			return fmt.Errorf("codec %s: %w", c.Name(), err)
		}
		p.store.metrics.decodeSeconds.Observe(time.Since(decStart).Seconds())
	}
	if err := compress.CheckFrameCRC(hdr, dst, c); err != nil {
		return err
	}
	j.stats = codecStats{framed: true, codecID: c.ID(), rawBytes: int64(len(dst)), storedBytes: int64(frameLen)}
	return nil
}

// readFull fills b from f at off. A slot that ends early was cut short on
// disk: corrupt, not a device failure.
func readFull(f *os.File, b []byte, off int64) error {
	n, err := f.ReadAt(b, off)
	if n == len(b) {
		return nil
	}
	if err == io.EOF {
		return fmt.Errorf("%w: record cut short: %d of %d bytes at %d", compress.ErrCorrupt, n, len(b), off)
	}
	return err
}

// transientIOErr classifies an I/O failure for the retry policy. A missing
// file, a short read, or a corrupt frame is a fact about the data, not a
// flaky device — retrying would only delay the inevitable. Everything else
// (injected faults, EIO-style device errors) is worth another attempt.
func transientIOErr(err error) bool {
	switch {
	case errors.Is(err, os.ErrNotExist),
		errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, compress.ErrCorrupt):
		return false
	}
	return true
}
