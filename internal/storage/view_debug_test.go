//go:build doocdebug

package storage

import (
	"math"
	"testing"
)

// TestUseAfterReleasePoisonsView exercises the doocdebug view-lifetime
// enforcement: a Float64View must stop validating the moment its lease is
// released, and reads through the stale slice must return the poison NaN
// instead of whatever the arena recycled the buffer into.
func TestUseAfterReleasePoisonsView(t *testing.T) {
	s, err := NewLocal(Config{MemoryBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	vals := make([]float64, 512)
	for i := range vals {
		vals[i] = float64(i) * 0.5
	}
	buf := make([]byte, 8*len(vals))
	EncodeFloat64s(buf, vals)
	if err := s.WriteArray("v", buf, int64(len(buf))); err != nil {
		t.Fatal(err)
	}

	l, err := s.RequestBlock("v", 0, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	v := Float64View(l)
	if !ViewValid(v) {
		t.Fatal("fresh view reported invalid")
	}
	for i := range vals {
		if v[i] != vals[i] {
			t.Fatalf("v[%d] = %v, want %v", i, v[i], vals[i])
		}
	}

	l.Release()
	if ViewValid(v) {
		t.Fatal("view still reported valid after lease release")
	}
	for i := range v {
		if !math.IsNaN(v[i]) {
			t.Fatalf("v[%d] = %v after release, want poison NaN", i, v[i])
		}
	}
}

// TestAbandonPoisonsView checks the error path too: reclaiming a lease via
// Abandon must invalidate views the same way Release does.
func TestAbandonPoisonsView(t *testing.T) {
	s, err := NewLocal(Config{MemoryBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	vals := []float64{1, 2, 3, 4}
	buf := make([]byte, 8*len(vals))
	EncodeFloat64s(buf, vals)
	if err := s.WriteArray("w", buf, int64(len(buf))); err != nil {
		t.Fatal(err)
	}
	l, err := s.RequestBlock("w", 0, PermRead)
	if err != nil {
		t.Fatal(err)
	}
	v := Float64View(l)
	l.Abandon()
	if ViewValid(v) {
		t.Fatal("view still reported valid after abandon")
	}
	if !math.IsNaN(v[0]) {
		t.Fatalf("v[0] = %v after abandon, want poison NaN", v[0])
	}
}
