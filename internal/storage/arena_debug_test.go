//go:build doocdebug && unix && !aix && !solaris

package storage

import (
	"runtime/debug"
	"testing"
)

// TestArenaUseAfterPutFaults: under doocdebug a mapped buffer is
// inaccessible from its Put to its next Get, so a write through a reference
// kept past Put faults at the culprit instead of landing in whatever block
// the buffer serves next.
func TestArenaUseAfterPutFaults(t *testing.T) {
	a := NewArena()
	b := a.Get(618_000)
	b[0] = 1
	a.Put(b)
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	faulted := func() (faulted bool) {
		defer func() { faulted = recover() != nil }()
		b[100] = 2
		return false
	}()
	if !faulted {
		t.Fatal("a write to a buffer after its Put did not fault")
	}
	again := a.Get(618_000)
	again[100] = 3 // accessible again once served
	a.Put(again)
}
