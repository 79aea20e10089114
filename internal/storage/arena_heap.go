//go:build !unix || aix || solaris

package storage

// The heap path: on a platform without the mmap path (arena_mmap.go) the
// large classes are sync.Pools like the small ones, and a foreign buffer
// recycles into them too.
type largeClasses struct{}

func (*largeClasses) get(a *Arena, c, n int) []byte { return a.poolGet(c, n) }

func (*largeClasses) put(a *Arena, b []byte, c int) { a.poolPut(b, c) }

func (*largeClasses) stats(*ArenaStats) {}
