package storage

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"time"

	"dooc/internal/compress"
)

// ioJob is one unit of file-system work for the asynchronous I/O filters.
type ioJob struct {
	write bool
	array string
	block int
	path  string
	off   int64
	// read: logical length of the block; write: payload.
	length int64
	data   []byte
	// codec, on a write, compresses the payload into an adaptive frame
	// before it hits the disk. Encoding runs in the I/O filter, off the
	// actor loop, so blocks compress in parallel.
	codec compress.Codec
	// framed, on a read, marks the file as one self-describing frame: the
	// filter reads the whole file and decodes it (no codec needed — the
	// frame names its own).
	framed bool
}

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

// read schedules an asynchronous block read; completion posts ioDone.
// framed reads expect a whole-file compress frame at path.
func (p *ioPool) read(array string, block int, path string, off, length int64, framed bool) {
	p.store.metrics.ioQueueDepth.Add(1)
	p.jobs.put(ioJob{array: array, block: block, path: path, off: off, length: length, framed: framed})
}

// write schedules an asynchronous block write-back; completion posts
// ioWrote. A non-nil codec spills the block as an adaptive frame.
func (p *ioPool) write(array string, block int, path string, off int64, data []byte, codec compress.Codec) {
	p.store.metrics.ioQueueDepth.Add(1)
	p.jobs.put(ioJob{write: true, array: array, block: block, path: path, off: off, data: data, codec: codec})
}

func (p *ioPool) worker(idx int) {
	defer p.wg.Done()
	for {
		item, ok := p.jobs.get()
		if !ok {
			return
		}
		j := item.(ioJob)
		p.store.metrics.ioQueueDepth.Add(-1)
		start := time.Now()
		if j.write {
			var cs codecStats
			var frameBuf []byte
			if j.codec != nil {
				encStart := time.Now()
				// Encode into a pooled buffer; it is recycled after the write
				// lands (the completion message carries no payload).
				dst := sharedArena.Get(compress.FrameHeaderLen + len(j.data) + len(j.data)/8 + 64)[:0]
				frame, used := compress.AppendFrameAdaptive(dst, j.codec, j.data)
				p.store.metrics.encodeSeconds.Observe(time.Since(encStart).Seconds())
				cs = codecStats{
					framed:      true,
					codecID:     used.ID(),
					rawBytes:    int64(len(j.data)),
					storedBytes: int64(len(frame)),
					bailout:     used.ID() != j.codec.ID(),
				}
				j.data = frame
				frameBuf = frame
			}
			err, retries := p.attempt(j)
			sharedArena.Put(frameBuf)
			p.store.metrics.ioWriteSeconds.Observe(time.Since(start).Seconds())
			p.store.traceIO("spill", j.array, j.block, idx, start, time.Now(), err)
			p.store.post(ioWrote{array: j.array, block: j.block, err: err, retries: retries, codec: cs})
		} else {
			var data []byte
			var cs codecStats
			err, retries := p.attemptRead(j, &data, &cs)
			p.store.metrics.ioReadSeconds.Observe(time.Since(start).Seconds())
			p.store.traceIO("load", j.array, j.block, idx, start, time.Now(), err)
			p.store.post(ioDone{array: j.array, block: j.block, data: data, err: err, retries: retries, codec: cs})
		}
	}
}

// attempt runs one write job under the retry policy.
func (p *ioPool) attempt(j ioJob) (error, int) {
	var err error
	retries := 0
	for try := 0; ; try++ {
		err = p.store.cfg.Faults.IO("write", j.path)
		if err == nil {
			err = writeAt(j.path, j.off, j.data)
		}
		if err == nil {
			return nil, retries
		}
		if try >= p.store.cfg.IORetries || !transientIOErr(err) {
			return fmt.Errorf("storage: writing %q block %d to %s at offset %d (%d attempt(s)): %w",
				j.array, j.block, j.path, j.off, try+1, err), retries
		}
		retries++
		time.Sleep(p.retrySleep(try))
	}
}

// attemptRead runs one read job under the retry policy. For framed jobs it
// also decodes the frame, inside the loop, so a decode failure is
// classified and attributed exactly like a device failure (it is
// non-transient: bad bytes on disk do not improve with retries).
func (p *ioPool) attemptRead(j ioJob, out *[]byte, cs *codecStats) (error, int) {
	var err error
	retries := 0
	for try := 0; ; try++ {
		err = p.store.cfg.Faults.IO("read", j.path)
		if err == nil {
			if j.framed {
				err = p.readFramed(j, out, cs)
			} else {
				*out, err = readAt(j.path, j.off, j.length)
			}
		}
		if err == nil {
			return nil, retries
		}
		if try >= p.store.cfg.IORetries || !transientIOErr(err) {
			return fmt.Errorf("storage: reading %q block %d from %s at offset %d (%d attempt(s)): %w",
				j.array, j.block, j.path, j.off, try+1, err), retries
		}
		retries++
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

// readFramed reads a whole-file compress frame and decodes it. The frame's
// internal CRC guarantees a truncated or bit-flipped file surfaces as an
// error, never as wrong block bytes.
func (p *ioPool) readFramed(j ioJob, out *[]byte, cs *codecStats) error {
	f, err := os.Open(j.path)
	if err != nil {
		return err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	// The frame is transient — read it into a pooled buffer and recycle it
	// once decoded (no codec retains its input).
	frame := sharedArena.Get(int(fi.Size()))
	defer sharedArena.Put(frame)
	if _, err := io.ReadFull(f, frame); err != nil {
		return err
	}
	// The header sizes the buffer — a forged length is refused there — and
	// the frame is decoded straight into what becomes the resident block.
	_, rawLen, err := compress.FrameRawLen(frame)
	if err != nil {
		return err
	}
	if int64(rawLen) != j.length {
		return fmt.Errorf("%w: frame decodes to %d bytes, block is %d", compress.ErrCorrupt, rawLen, j.length)
	}
	data := sharedArena.Get(rawLen)
	decStart := time.Now()
	used, err := compress.DecodeFrameInto(data, frame, true)
	if err != nil {
		sharedArena.Put(data)
		return err
	}
	p.store.metrics.decodeSeconds.Observe(time.Since(decStart).Seconds())
	*out = data
	*cs = codecStats{
		framed:      true,
		codecID:     used.ID(),
		rawBytes:    int64(len(data)),
		storedBytes: int64(len(frame)),
	}
	return nil
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

func readAt(path string, off, length int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data := sharedArena.Get(int(length))
	n, err := f.ReadAt(data, off)
	if err != nil && !(err == io.EOF && int64(n) == length) {
		sharedArena.Put(data)
		return nil, fmt.Errorf("read %d bytes at %d: %w", length, off, err)
	}
	return data, nil
}

func writeAt(path string, off int64, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(data, off); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
