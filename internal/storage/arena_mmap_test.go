//go:build unix && !aix && !solaris

package storage

import (
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// TestArenaMappedLedger: a large Get maps a class-sized buffer outside the
// heap and counts it live; its Put moves it to idle, the next Get of the
// class serves it again without a new mapping, and a second Put of the same
// buffer panics instead of handing it to two owners.
func TestArenaMappedLedger(t *testing.T) {
	a := NewArena()
	const n = 618_000
	size := int64(classSize(getClassFor(n)))
	b := a.Get(n)
	if st := a.Stats(); st.Mapped != size || st.Live != size || st.Idle != 0 || st.News != 1 {
		t.Fatalf("after one large Get: %+v, want %d mapped and live", st, size)
	}
	b[0], b[n-1] = 1, 2
	a.Put(b)
	if st := a.Stats(); st.Mapped != size || st.Live != 0 || st.Idle != size || st.Puts != 1 {
		t.Fatalf("after its Put: %+v, want %d mapped and idle", st, size)
	}
	again := a.Get(n - 1000)
	if unsafe.SliceData(again) != unsafe.SliceData(b) {
		t.Fatal("the next Get of the class minted a new buffer instead of serving the free one")
	}
	if st := a.Stats(); st.Mapped != size || st.Live != size || st.News != 1 {
		t.Fatalf("after the second Get: %+v, want the one mapping live", st)
	}
	a.Put(again)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "put back twice") {
			t.Fatalf("a second Put of a free buffer: recovered %v, want a put-twice panic", r)
		}
		if st := a.Stats(); st.Idle != size || st.Live != 0 {
			t.Fatalf("after the refused second Put: %+v", st)
		}
	}()
	a.Put(again)
}

// TestArenaIdleGivesPagesBack: a free mapped buffer left idle through a
// whole collection gives its pages back at the next one. Its mapping stays:
// the next Get of the class serves it, writable, with no new mapping.
func TestArenaIdleGivesPagesBack(t *testing.T) {
	a := NewArena()
	const n = 1 << 20
	b := a.Get(n)
	for i := range b {
		b[i] = 0xA5
	}
	a.Put(b)
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().Idle != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("still %+v after 5 s of collections", a.Stats())
		}
		runtime.GC()
		time.Sleep(time.Millisecond) // the sweep runs on the finalizer goroutine
	}
	st := a.Stats()
	if st.Mapped != int64(n) || st.Live != 0 {
		t.Fatalf("after the pages went back: %+v, want the mapping kept", st)
	}
	again := a.Get(n)
	if unsafe.SliceData(again) != unsafe.SliceData(b) {
		t.Fatal("a Get after the release minted a new buffer")
	}
	again[0], again[n-1] = 7, 9
	if again[0] != 7 || again[n-1] != 9 {
		t.Fatal("the buffer served after its release does not hold what was written")
	}
	if st := a.Stats(); st.News != 1 || st.Live != int64(n) {
		t.Fatalf("after the Get: %+v", st)
	}
	a.Put(again)
}

// TestCloseReturnsLeasedBufferOnRelease: Close gives every unleased block
// buffer back to the shared arena at once; a block still leased keeps its
// buffer until the lease is released after Close, and then gives it back.
// (The arena's live bytes are process-wide: nothing else in this package
// runs beside the test.)
func TestCloseReturnsLeasedBufferOnRelease(t *testing.T) {
	const blockSize = 100_000 // a large class
	start := sharedArena.Stats().Live
	s, err := NewLocal(Config{MemoryBudget: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteArray("a", make([]byte, 3*blockSize), blockSize); err != nil {
		t.Fatal(err)
	}
	l, err := s.RequestBlock("a", 1, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	class := int64(classSize(getClassFor(blockSize)))
	if live := sharedArena.Stats().Live - start; live != 3*class {
		t.Fatalf("three resident blocks: %d live bytes, want %d", live, 3*class)
	}
	s.Close()
	if live := sharedArena.Stats().Live - start; live != class {
		t.Fatalf("after Close with one block leased: %d live bytes, want the leased block's %d", live, class)
	}
	l.Release()
	if live := sharedArena.Stats().Live - start; live != 0 {
		t.Fatalf("after the last lease's release: %d live bytes, want 0", live)
	}
}
