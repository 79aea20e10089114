package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestPooledBufferHammer drives many goroutines through the pooled-buffer
// hot path — lease grant, zero-copy view, read, release — against a memory
// budget tight enough to force eviction and arena recycling underneath the
// readers. Each array is filled with a distinct constant, so a buffer
// recycled while still viewed shows up as a wrong value, and the race
// detector (make race runs this package with -race) catches unsynchronized
// reuse.
func TestPooledBufferHammer(t *testing.T) {
	const (
		arrays    = 4
		elems     = 1024
		arrayBy   = 8 * elems
		goroutine = 8
	)
	iters := 300
	if testing.Short() {
		iters = 50
	}
	// Budget holds two arrays: every read of a third forces an eviction and
	// a read-through from scratch, recycling buffers through the arena.
	s, err := NewLocal(Config{MemoryBudget: 2*arrayBy + 1<<10, ScratchDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for a := 0; a < arrays; a++ {
		vals := make([]float64, elems)
		for i := range vals {
			vals[i] = float64(a + 1)
		}
		buf := make([]byte, arrayBy)
		EncodeFloat64s(buf, vals)
		name := fmt.Sprintf("h%d", a)
		if err := s.WriteArray(name, buf, arrayBy); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(name); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutine)
	for g := 0; g < goroutine; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				a := rng.Intn(arrays)
				name := fmt.Sprintf("h%d", a)
				l, err := s.RequestBlock(name, 0, PermRead)
				if err != nil {
					errs <- fmt.Errorf("request %s: %w", name, err)
					return
				}
				v := Float64View(l)
				want := float64(a + 1)
				for j := 0; j < elems; j += 97 {
					if v[j] != want {
						l.Release()
						errs <- fmt.Errorf("%s[%d] = %v, want %v (buffer recycled under a live view?)", name, j, v[j], want)
						return
					}
				}
				l.Release()
			}
		}(int64(g) + 1)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
