package storage

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dooc/internal/obs"
)

// TestStorageSpansEmitted drives a store through spills, evictions, and
// reloads with a tracer attached and asserts the storage band appears in
// the Chrome trace: named lanes, load/spill spans on the I/O-worker lanes,
// grant spans on the lease lane, and evict instants on the loop lane —
// all in a blob obs.ValidateTrace accepts.
func TestStorageSpansEmitted(t *testing.T) {
	tracer := obs.NewTracer()
	s, err := NewLocal(Config{
		MemoryBudget: 2048, // two 1 KiB blocks: reads past that must evict
		ScratchDir:   t.TempDir(),
		IOWorkers:    2,
		Seed:         1,
		Trace:        tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	const blocks, blockSize = 6, 1024
	if err := s.Create("a", blocks*blockSize, blockSize); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < blocks; i++ {
		w, err := s.RequestBlock("a", i, PermWrite)
		if err != nil {
			t.Fatal(err)
		}
		for j := range w.Data {
			w.Data[j] = byte(i)
		}
		w.Release()
	}
	if err := s.Flush("a"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < blocks; i++ {
		r, err := s.RequestBlock("a", i, PermRead)
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
	}

	var blob bytes.Buffer
	if err := tracer.WriteJSON(&blob); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateTrace(blob.Bytes()); err != nil {
		t.Fatalf("storage trace invalid: %v", err)
	}
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Cat  string         `json:"cat"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	lanes := map[string]bool{}
	for _, ev := range file.TraceEvents {
		if ev.Ph == "M" {
			if name, _ := ev.Args["name"].(string); name != "" {
				lanes[name] = true
			}
			continue
		}
		if ev.Cat != traceCatStorage {
			continue
		}
		switch {
		case strings.HasPrefix(ev.Name, "spill "):
			counts["spill"]++
			if ev.Tid < traceTidIOBase {
				t.Fatalf("spill span on tid %d, want an I/O lane >= %d", ev.Tid, traceTidIOBase)
			}
		case strings.HasPrefix(ev.Name, "load "):
			counts["load"]++
			if ev.Tid < traceTidIOBase {
				t.Fatalf("load span on tid %d, want an I/O lane >= %d", ev.Tid, traceTidIOBase)
			}
		case strings.HasPrefix(ev.Name, "evict "):
			counts["evict"]++
			if ev.Tid != traceTidLoop {
				t.Fatalf("evict instant on tid %d, want the loop lane %d", ev.Tid, traceTidLoop)
			}
			if ev.Ph != "i" {
				t.Fatalf("evict event has phase %q, want instant", ev.Ph)
			}
		case strings.HasPrefix(ev.Name, "grant "):
			counts["grant"]++
			if ev.Tid != traceTidLease {
				t.Fatalf("grant span on tid %d, want the lease lane %d", ev.Tid, traceTidLease)
			}
		}
	}
	for _, kind := range []string{"spill", "load", "evict", "grant"} {
		if counts[kind] == 0 {
			t.Fatalf("no %s events in the trace; counts = %v", kind, counts)
		}
	}
	// Flushing 6 blocks through 2-block memory must have spilled all 6 and
	// reloaded at least the evicted ones; every Request granted a lease.
	if counts["spill"] < blocks {
		t.Fatalf("spill spans = %d, want >= %d", counts["spill"], blocks)
	}
	if counts["grant"] < 2*blocks {
		t.Fatalf("grant spans = %d, want >= %d", counts["grant"], 2*blocks)
	}
	for _, lane := range []string{"storage", "lease", "io0", "io1"} {
		if !lanes[lane] {
			t.Fatalf("lane %q not named in trace metadata; have %v", lane, lanes)
		}
	}
}

// TestStorageUntracedEmitsNothing: with no tracer configured the storage
// layer adds zero trace events (the Enabled gate short-circuits the span
// sites), so tracing off costs nothing on the I/O path.
func TestStorageUntracedEmitsNothing(t *testing.T) {
	s, err := NewLocal(Config{MemoryBudget: 1 << 20, ScratchDir: t.TempDir(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if err := s.Create("a", 4096, 1024); err != nil {
		t.Fatal(err)
	}
	w, err := s.RequestBlock("a", 0, PermWrite)
	if err != nil {
		t.Fatal(err)
	}
	w.Release()
	// The nil tracer path must simply not panic anywhere; nothing to
	// assert beyond the store working (the gate is s.cfg.Trace.Enabled()).
	if err := s.Flush("a"); err != nil {
		t.Fatal(err)
	}
}
