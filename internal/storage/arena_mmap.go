//go:build unix && !aix && !solaris

package storage

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"unsafe"
)

// The mmap path: the large classes are anonymous private mappings the arena
// mints itself, one per buffer, so block bytes are not Go heap objects. The
// collector neither scans nor counts them, which takes them out of the heap
// goal GOGC doubles: a resident block costs its touched pages once. Free
// buffers wait on per-class free lists. A mapping is never unmapped — a
// stray reference to a returned buffer reads or writes recycled bytes, as
// with any pool, but never faults a production run. (aix and solaris, whose
// syscall packages have no madvise, take the heap path.)
//
// Idle memory follows sync.Pool's rule: a free buffer that stays idle
// through a whole collection gives its pages back at the next one
// (MADV_DONTNEED, swept from a finalizer that re-arms itself every cycle),
// and a later Get of it faults in fresh pages as it writes them. Under the
// doocdebug tag a free buffer is also PROT_NONE until its next Get, so a
// write or read after Put faults at the culprit.
type largeClasses struct {
	mu sync.Mutex
	// free is each large class's free list, used as a stack: Get takes the
	// buffer put back last, the likeliest to still hold its pages.
	free [arenaNumClasses - arenaLargeClass][]*mapping
	// owned maps the first byte of every mapping the arena minted to it.
	owned map[*byte]*mapping
	// mapped, live and idle are ArenaStats' Mapped, Live and Idle.
	mapped, live, idle int64
	// cycle counts the collections the sweep has seen.
	cycle int64
}

// mapping is one minted buffer.
type mapping struct {
	buf   []byte // the whole mapping, one class long
	class int
	free  bool
	held  bool  // free with its pages still held (counted in idle)
	since int64 // the cycle it was last put back in
}

func (l *largeClasses) get(a *Arena, c, n int) []byte {
	l.mu.Lock()
	if fl := &l.free[c-arenaLargeClass]; len(*fl) > 0 {
		m := (*fl)[len(*fl)-1]
		(*fl)[len(*fl)-1] = nil
		*fl = (*fl)[:len(*fl)-1]
		if m.held {
			l.idle -= int64(len(m.buf))
		}
		m.free, m.held = false, false
		l.live += int64(len(m.buf))
		if arenaDebugProtect {
			protectPages(m.buf, syscall.PROT_READ|syscall.PROT_WRITE)
		}
		l.mu.Unlock()
		return m.buf[:n]
	}
	l.mu.Unlock()
	a.news.Add(1)
	size := classSize(c)
	buf, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		// Out of address space or mappings: serve the request from the
		// heap; its Put leaves it to the collector.
		return make([]byte, n, size)
	}
	m := &mapping{buf: buf, class: c}
	l.mu.Lock()
	if l.owned == nil {
		l.owned = make(map[*byte]*mapping)
		runtime.SetFinalizer(&arenaSweeper{l}, (*arenaSweeper).collected)
	}
	l.owned[&buf[0]] = m
	l.mapped += int64(size)
	l.live += int64(size)
	l.mu.Unlock()
	return buf[:n]
}

func (l *largeClasses) put(a *Arena, b []byte, c int) {
	p := unsafe.SliceData(b[:cap(b)])
	l.mu.Lock()
	m := l.owned[p]
	if m == nil {
		l.mu.Unlock()
		a.drops.Add(1) // a heap buffer: the collector's
		return
	}
	if m.free {
		l.mu.Unlock()
		panic(fmt.Sprintf("storage: a %d-byte arena buffer was put back twice", len(m.buf)))
	}
	m.free, m.held, m.since = true, true, l.cycle
	l.live -= int64(len(m.buf))
	l.idle += int64(len(m.buf))
	fl := &l.free[m.class-arenaLargeClass]
	*fl = append(*fl, m)
	if arenaDebugProtect {
		protectPages(m.buf, syscall.PROT_NONE)
	}
	l.mu.Unlock()
	a.puts.Add(1)
}

func (l *largeClasses) stats(st *ArenaStats) {
	l.mu.Lock()
	st.Mapped, st.Live, st.Idle = l.mapped, l.live, l.idle
	l.mu.Unlock()
}

// sweep runs once a collection: a free buffer put back before the previous
// sweep has been idle through a whole collection, and gives its pages back.
func (l *largeClasses) sweep() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cycle++
	for _, fl := range l.free {
		for _, m := range fl {
			if m.held && l.cycle-m.since >= 2 {
				releasePages(m.buf)
				m.held = false
				l.idle -= int64(len(m.buf))
			}
		}
	}
}

// arenaSweeper is the collection hook: unreachable from the moment it is
// armed, so each collection queues its finalizer, which sweeps and arms it
// again.
type arenaSweeper struct{ l *largeClasses }

func (s *arenaSweeper) collected() {
	s.l.sweep()
	runtime.SetFinalizer(s, (*arenaSweeper).collected)
}

// releasePages tells the system b's pages may be dropped; the mapping stays,
// and reads as zeroes once they are.
func releasePages(b []byte) {
	syscall.Syscall(syscall.SYS_MADVISE, uintptr(unsafe.Pointer(unsafe.SliceData(b))), uintptr(len(b)), syscall.MADV_DONTNEED)
}

// protectPages sets b's access. It backs the doocdebug build's check, where
// failing to is a broken test set-up.
func protectPages(b []byte, prot int) {
	if _, _, e := syscall.Syscall(syscall.SYS_MPROTECT, uintptr(unsafe.Pointer(unsafe.SliceData(b))), uintptr(len(b)), uintptr(prot)); e != 0 {
		panic(fmt.Sprintf("storage: mprotect of a %d-byte arena buffer: %v", len(b), e))
	}
}
