package storage

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Arena is a size-classed byte-buffer pool for the block payloads that
// dominate the steady-state data path: write-lease grants, disk read
// buffers, spill frames, and wire frames. Buffers cycle between the store's
// eviction path (Put on drop) and its allocation paths (Get on grant/fetch),
// so an iterative solver's working set stops touching the allocator once
// warm.
//
// Classes run from 512 B to 64 MiB, four to an octave: 512, 640, 768, 896,
// 1024, 1280, … — an octave's power of two and its 1.25, 1.5 and 1.75
// multiples. Get rounds a request up to the next class, so a buffer above
// 512 B is never more than 25 % larger than its request. A resident block
// therefore holds at most 1.25 × the bytes MemoryBudget counts for it.
// Buffers are NOT zeroed on reuse — every consumer either clears a fresh
// write block (the write-lease discipline) or adopts written block images.
//
// The small classes are sync.Pools on the Go heap, and Put files a buffer
// under the largest class that fits its capacity, so foreign buffers (grown
// appends, decoded frames) recycle too. The large classes, from
// arenaLargeMin up, are the block classes: where the platform has the mmap
// path (arena_mmap.go) they are anonymous mappings the arena owns, outside
// the collector's view, and a large-class Put takes back only a buffer the
// arena minted — every owner must return its buffer, and a foreign one is
// left to the collector. Elsewhere (arena_heap.go) they are sync.Pools like
// the small classes.
type Arena struct {
	classes [arenaNumClasses]sync.Pool // the large ones idle on the mmap path
	large   largeClasses

	gets  atomic.Int64 // buffers served from Get
	news  atomic.Int64 // Gets that had to allocate or map fresh
	puts  atomic.Int64 // buffers accepted back
	drops atomic.Int64 // Puts not pooled: below the smallest class, or foreign to a mapped class
}

const (
	arenaMinShift   = 9  // 512 B, the smallest class
	arenaMaxShift   = 26 // 64 MiB, the largest
	arenaStepBits   = 2  // log2 of the classes per octave
	arenaNumClasses = (arenaMaxShift-arenaMinShift)<<arenaStepBits + 1

	// arenaLargeMin is where the large classes start. Every matrix block
	// the benchmark shapes stage (0.3–2.4 MB) is above it, and the vector
	// parts, basis vectors and spill frames of the vectors (6–40 KB) are
	// below it. A buffer this size is 16 whole pages, so a mapping of a
	// class wastes nothing to page rounding, and the buffers are few and
	// long-lived enough that a mapping per buffer — a system call when it
	// is minted, a lock on each Get and Put — is lost in the copy of the
	// block itself; below it the sync.Pool path is cheaper.
	arenaLargeMin   = 64 << 10
	arenaLargeClass = (16 - arenaMinShift) << arenaStepBits // the class of arenaLargeMin
)

// ArenaStats is a snapshot of an arena's counters. Mapped, Live and Idle
// count the large classes' mapped buffers, in class bytes, and are zero on a
// platform without the mmap path: Mapped is every byte the arena has mapped
// (a mapping is never unmapped), Live the bytes out on loan, and Idle the
// bytes on the free lists whose pages are still held. Mapped − Live − Idle
// are free bytes whose pages were given back to the system.
type ArenaStats struct {
	Gets, News, Puts, Drops int64
	Mapped, Live, Idle      int64
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// sharedArena is the process-wide pool every store (and the wire layer)
// draws from; a block evicted by one node recycles into any node's next
// grant, which is exactly the in-process test topology's traffic pattern.
var sharedArena = NewArena()

// SharedArena returns the process-wide buffer arena.
func SharedArena() *Arena { return sharedArena }

// classSize is the byte size of class c: 4, 5, 6 or 7 (step c&3) times a
// quarter of octave c>>arenaStepBits's power of two.
func classSize(c int) int {
	const steps = 1 << arenaStepBits
	return (steps | c&(steps-1)) << (c>>arenaStepBits + arenaMinShift - arenaStepBits)
}

// floorClass returns the index of the largest class size <= v, for v >= the
// smallest class; past 64 MiB the index runs beyond the table. v's octave
// picks the power of two, its top three bits (4 to 7) the step within it.
func floorClass(v int) int {
	s := bits.Len(uint(v)) - 1
	top := v >> (s - arenaStepBits)
	return (s-arenaMinShift)<<arenaStepBits + top - 1<<arenaStepBits
}

// getClassFor returns the smallest class index whose size is >= n, or -1
// when n exceeds the largest class.
func getClassFor(n int) int {
	if n <= 1<<arenaMinShift {
		return 0
	}
	// The class after the largest one below n is the smallest that holds n.
	c := floorClass(n-1) + 1
	if c >= arenaNumClasses {
		return -1
	}
	return c
}

// putClassFor returns the largest class index whose size is <= c (the
// buffer's capacity), or -1 when the capacity is below the smallest class.
func putClassFor(c int) int {
	if c < 1<<arenaMinShift {
		return -1
	}
	return min(floorClass(c), arenaNumClasses-1)
}

// Get returns a buffer of length n. Contents are unspecified (buffers are
// recycled unzeroed). Requests above the largest class fall through to the
// allocator.
func (a *Arena) Get(n int) []byte {
	if n == 0 {
		return nil
	}
	a.gets.Add(1)
	c := getClassFor(n)
	switch {
	case c < 0:
		a.news.Add(1)
		return make([]byte, n)
	case c >= arenaLargeClass:
		return a.large.get(a, c, n)
	}
	return a.poolGet(c, n)
}

// poolGet serves class c from its sync.Pool.
func (a *Arena) poolGet(c, n int) []byte {
	size := classSize(c)
	if p, ok := a.classes[c].Get().(unsafe.Pointer); ok {
		return unsafe.Slice((*byte)(p), size)[:n]
	}
	a.news.Add(1)
	return make([]byte, n, size)
}

// Put returns a buffer to the arena. The caller must own b exclusively: no
// live lease, view, or in-flight I/O may alias it, and b must start where
// the buffer Get returned starts. Undersized buffers are dropped (pooling
// them would churn the small classes with unusable capacities); nil is
// ignored.
func (a *Arena) Put(b []byte) {
	c := putClassFor(cap(b))
	switch {
	case c < 0:
		if b != nil {
			a.drops.Add(1)
		}
		return
	case c >= arenaLargeClass:
		a.large.put(a, b, c)
		return
	}
	a.poolPut(b, c)
}

// poolPut files b under class c's sync.Pool.
func (a *Arena) poolPut(b []byte, c int) {
	a.puts.Add(1)
	a.classes[c].Put(unsafe.Pointer(unsafe.SliceData(b[:cap(b)])))
}

// Stats snapshots the arena's counters.
func (a *Arena) Stats() ArenaStats {
	st := ArenaStats{
		Gets:  a.gets.Load(),
		News:  a.news.Load(),
		Puts:  a.puts.Load(),
		Drops: a.drops.Load(),
	}
	a.large.stats(&st)
	return st
}
