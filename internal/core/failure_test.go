package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dooc/internal/compress"
	"dooc/internal/sparse"
)

// TestCorruptStagedBlockFailsCleanly: a bit-flipped CRS block must surface
// as an error from the run — never a hang, never a silent wrong result — at
// either site that checks a block's CRC: the computing filter that views it,
// or the I/O filter that read it. Both name the array and wrap
// compress.ErrCorrupt.
func TestCorruptStagedBlockFailsCleanly(t *testing.T) {
	for _, site := range verifySites {
		t.Run(site.name, func(t *testing.T) {
			err := runOnDamagedBlock(t, site.inIOFilter, 40, 1, "A_001_001", func(data []byte) []byte {
				data[len(data)/2] ^= 0x20 // a byte in the middle of the payload
				return data
			})
			site.check(t, err, "A_001_001")
			if !strings.Contains(err.Error(), "checksum") {
				t.Fatalf("error does not identify the corruption: %v", err)
			}
		})
	}
}

// TestTruncatedStagedBlockFailsCleanly: same contract for truncation.
func TestTruncatedStagedBlockFailsCleanly(t *testing.T) {
	for _, site := range verifySites {
		t.Run(site.name, func(t *testing.T) {
			err := runOnDamagedBlock(t, site.inIOFilter, 30, 2, "A_000_000", func(data []byte) []byte {
				return data[:len(data)/3]
			})
			site.check(t, err, "A_000_000")
		})
	}
}

// verifySites are the two places a staged block's CRC can run, each with
// what a run that fails on a damaged block must say from there.
var verifySites = []struct {
	name       string
	inIOFilter bool
	check      func(t *testing.T, err error, array string)
}{
	{"computing-filter", false, func(t *testing.T, err error, array string) {
		checkCorrupt(t, err, fmt.Sprintf("core: matrix %q", array))
	}},
	{"io-filter", true, func(t *testing.T, err error, array string) {
		checkCorrupt(t, err, fmt.Sprintf("storage: reading %q block 0", array))
	}},
}

func checkCorrupt(t *testing.T, err error, site string) {
	t.Helper()
	if !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("error does not wrap compress.ErrCorrupt: %v", err)
	}
	if !strings.Contains(err.Error(), site) {
		t.Fatalf("error %q does not come from %q", err, site)
	}
}

// runOnDamagedBlock stages a dim² gap matrix as a K = 2 grid on one node,
// rewrites one block's file through damage, and returns the error of a run
// over it, with the block's CRC checked in the I/O filter or not. A run that
// succeeds or hangs fails the test.
func runOnDamagedBlock(t *testing.T, inIOFilter bool, dim int, seed int64, victim string, damage func([]byte) []byte) error {
	t.Helper()
	forceVerifySite(t, inIOFilter)
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	cfg := SpMVConfig{Dim: dim, K: 2, Iters: 2, Nodes: 1}
	if err := StageMatrix(root, m, cfg); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, "node0", victim+".arr")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, damage(data), 0o644); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Options{Nodes: 1, ScratchRoot: root, Reorder: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	rng := rand.New(rand.NewSource(41))
	x0 := make([]float64, dim)
	for i := range x0 {
		x0[i] = rng.NormFloat64()
	}
	done := make(chan error, 1)
	go func() {
		_, err := RunIteratedSpMV(sys, cfg, x0)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("run succeeded on a damaged block")
		}
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("run hung on a damaged block")
	}
	return nil
}

// forceVerifySite makes every System built until the test ends check a
// staged block's CRC in the I/O filter that read it (inIOFilter) or in the
// computing filter, whatever GOMAXPROCS is.
func forceVerifySite(tb testing.TB, inIOFilter bool) {
	prev := verifyInIOFilter
	verifyInIOFilter = func(Options) bool { return inIOFilter }
	tb.Cleanup(func() { verifyInIOFilter = prev })
}

// TestMissingStagedBlockDetectedAtDiscovery: an incomplete staging layout
// is reported by DiscoverStagedMatrix before any run starts.
func TestMissingStagedBlockDetectedAtDiscovery(t *testing.T) {
	const dim, k = 30, 3
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	cfg := SpMVConfig{Dim: dim, K: k, Iters: 1, Nodes: 2}
	if err := StageMatrix(root, m, cfg); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(root, "node1", "A_001_002.arr")); err != nil {
		t.Fatal(err)
	}
	if _, err := DiscoverStagedMatrix(root); err == nil || !strings.Contains(err.Error(), "missing block") {
		t.Fatalf("discovery err = %v, want missing-block error", err)
	}
}

// TestDiscoveryOnEmptyDirErrors documents the empty-layout behaviour.
func TestDiscoveryOnEmptyDirErrors(t *testing.T) {
	if _, err := DiscoverStagedMatrix(t.TempDir()); err == nil {
		t.Fatal("discovery on empty directory succeeded")
	}
}

// TestDiscoverStagedMatrixRoundTrip verifies discovery against known
// staging parameters.
func TestDiscoverStagedMatrixRoundTrip(t *testing.T) {
	const dim, k, nodes = 50, 4, 3
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	cfg := SpMVConfig{Dim: dim, K: k, Iters: 1, Nodes: nodes}
	if err := StageMatrix(root, m, cfg); err != nil {
		t.Fatal(err)
	}
	info, err := DiscoverStagedMatrix(root)
	if err != nil {
		t.Fatal(err)
	}
	if info.Dim != dim || info.K != k || info.Nodes != nodes {
		t.Fatalf("info = %+v", info)
	}
	if info.NNZ != m.NNZ() {
		t.Fatalf("NNZ = %d, want %d", info.NNZ, m.NNZ())
	}
}
