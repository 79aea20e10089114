package storage

import (
	"math/rand"
	"testing"
	"unsafe"
)

// arenaClassTable is the class-size table spelled out: every octave from
// 512 B to 64 MiB, split at its power of two and the 1.25, 1.5 and 1.75
// multiples of it.
func arenaClassTable() []int {
	var sizes []int
	for pow := 512; pow <= 64<<20; pow <<= 1 {
		for _, quarters := range []int{4, 5, 6, 7} {
			if sz := pow / 4 * quarters; sz <= 64<<20 {
				sizes = append(sizes, sz)
			}
		}
	}
	return sizes
}

// arenaProbes samples every class at its size -1, +0 and +1, plus the ends.
func arenaProbes() []int {
	probes := []int{1, 2, 100, 511}
	for _, sz := range arenaClassTable() {
		probes = append(probes, sz-1, sz, sz+1)
	}
	return probes
}

func TestArenaClassTable(t *testing.T) {
	table := arenaClassTable()
	if len(table) != arenaNumClasses {
		t.Fatalf("%d classes in the table, arena has %d", len(table), arenaNumClasses)
	}
	for i, want := range []int{512, 640, 768, 896, 1024, 1280} {
		if table[i] != want {
			t.Fatalf("class %d is %d B, want %d", i, table[i], want)
		}
	}
	for c, want := range table {
		if got := classSize(c); got != want {
			t.Errorf("classSize(%d) = %d, table says %d", c, got, want)
		}
	}
}

// TestArenaGetLenCap: Get(n) is n bytes long, holds at least n, and above
// the smallest class holds at most a quarter more.
func TestArenaGetLenCap(t *testing.T) {
	a := NewArena()
	for _, n := range arenaProbes() {
		b := a.Get(n)
		if len(b) != n || cap(b) < n {
			t.Fatalf("Get(%d): len %d cap %d", n, len(b), cap(b))
		}
		if n > 1<<arenaMinShift && cap(b) > n+n/4 {
			t.Errorf("Get(%d): cap %d is more than 1.25 × the request", n, cap(b))
		}
	}
}

// TestArenaClassLookup: the O(1) lookups agree with a scan of the table.
func TestArenaClassLookup(t *testing.T) {
	table := arenaClassTable()
	scanGet := func(n int) int { // smallest class that holds n
		for c, sz := range table {
			if sz >= n {
				return c
			}
		}
		return -1
	}
	scanPut := func(capacity int) int { // largest class that fits in capacity
		c := -1
		for i, sz := range table {
			if sz <= capacity {
				c = i
			}
		}
		return c
	}
	probes := append(arenaProbes(), 1<<30, 3<<29+7)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		probes = append(probes, 1+rng.Intn(1<<27))
	}
	for _, n := range probes {
		if got, want := getClassFor(n), scanGet(n); got != want {
			t.Fatalf("getClassFor(%d) = %d, scan says %d", n, got, want)
		}
		if got, want := putClassFor(n), scanPut(n); got != want {
			t.Fatalf("putClassFor(%d) = %d, scan says %d", n, got, want)
		}
	}
}

// servedBack reports whether a Get of n from a returns the backing of buf,
// which the caller has just Put. The race detector's sync.Pool drops a
// random share of Puts, so the round trip is retried with fresh buffers.
func servedBack(a *Arena, fresh func() []byte, n int) (got []byte, ok bool) {
	for try := 0; try < 32; try++ {
		buf := fresh()
		a.Put(buf)
		got = a.Get(n)
		if unsafe.SliceData(got) == unsafe.SliceData(buf[:1]) {
			return got, true
		}
	}
	return got, false
}

// TestArenaRecycles: a buffer Put is served back by a Get of the same size,
// and a foreign buffer is filed under a class no larger than its capacity.
func TestArenaRecycles(t *testing.T) {
	a := NewArena()
	for _, n := range []int{600, 6000, 24 << 10, 618_000} {
		got, ok := servedBack(a, func() []byte { return a.Get(n) }, n)
		if !ok {
			t.Fatalf("Put then Get(%d) never came back from the class", n)
		}
		if len(got) != n || cap(got) != classSize(getClassFor(n)) {
			t.Fatalf("Get(%d) from the pool: len %d cap %d", n, len(got), cap(got))
		}
	}
	for _, capacity := range []int{512, 700, 1000, 5000, 70_001, 618_000, 2_516_000} {
		size := classSize(putClassFor(capacity))
		got, ok := servedBack(a, func() []byte { return make([]byte, 3, capacity) }, size)
		if !ok {
			t.Fatalf("a %d-byte foreign buffer was not served for its class of %d", capacity, size)
		}
		if cap(got) > capacity {
			t.Fatalf("a %d-byte foreign buffer came back with cap %d", capacity, cap(got))
		}
	}
}

func TestArenaEdges(t *testing.T) {
	a := NewArena()
	if b := a.Get(0); b != nil {
		t.Fatalf("Get(0) = %d-byte buffer, want nil", cap(b))
	}
	a.Put(nil)
	a.Put(make([]byte, 511))
	if st := a.Stats(); st.Puts != 0 || st.Drops != 1 {
		t.Fatalf("after Put(nil) and a 511-byte Put: %+v, want 0 puts and 1 drop", st)
	}
	n := 64<<20 + 1
	b := a.Get(n)
	if len(b) != n || cap(b) != n {
		t.Fatalf("Get(%d): len %d cap %d, want an exact allocation", n, len(b), cap(b))
	}
	if st := a.Stats(); st.Gets != 1 || st.News != 1 {
		t.Fatalf("after one oversized Get: %+v, want 1 get and 1 new", st)
	}
}
