package cluster

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dooc/internal/core"
	"dooc/internal/sparse"
	"dooc/internal/storage"
)

// TestCloseReturnsEveryBlockBuffer: ten systems in a row, each created,
// run and closed, hand every block buffer back to the shared arena — an
// in-core store, an out-of-core one that evicts and reloads, and one backed
// by a three-peer ring. The arena's live bytes come back to where they
// started, and once the first cycle has mapped what a cycle needs, later
// cycles reuse it: mapped bytes grow by less than one staged matrix over
// the nine cycles that follow, where a store that left its blocks to the
// collector would map the whole matrix again every cycle. (On a platform
// without the mmap path both counts stay 0.)
func TestCloseReturnsEveryBlockBuffer(t *testing.T) {
	const dim, k, nodes, cycles = 1200, 3, 2, 10
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 6, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	stagedRoot := t.TempDir()
	cfg := core.SpMVConfig{Dim: dim, K: k, Iters: 3, Nodes: nodes}
	if err := core.StageMatrix(stagedRoot, m, cfg); err != nil {
		t.Fatal(err)
	}
	info, err := core.DiscoverStagedMatrix(stagedRoot)
	if err != nil {
		t.Fatal(err)
	}
	if b := info.Bytes / (k * k); b < 64<<10 {
		t.Fatalf("a staged block is %d bytes: below the arena's large classes, the test checks nothing", b)
	}
	x0 := make([]float64, dim)
	rng := rand.New(rand.NewSource(5))
	for i := range x0 {
		x0[i] = rng.Float64()
	}
	peers := startTestCluster(t, 3, nil)
	for _, tc := range []struct {
		name string
		opts core.Options
	}{
		{"in-core", core.Options{MemoryBudget: 2 * info.Bytes}},
		{"out-of-core", core.Options{MemoryBudget: 2 * info.Bytes / int64(k*k)}},
		{"ring", core.Options{MemoryBudget: 2 * info.Bytes / int64(k*k), Shard: peers[0].node}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			arena := storage.SharedArena()
			start := arena.Stats().Live
			var mapped int64
			for c := 0; c < cycles; c++ {
				opts := tc.opts
				opts.Nodes, opts.PrefetchWindow, opts.Reorder = nodes, 2, true
				opts.ScratchRoot = copyStaged(t, stagedRoot)
				sys, err := core.NewSystem(opts)
				if err != nil {
					t.Fatal(err)
				}
				cfg := cfg
				cfg.Tag = fmt.Sprintf("c%d", c)
				_, err = core.RunIteratedSpMV(sys, cfg, x0)
				sys.Close()
				if err != nil {
					t.Fatal(err)
				}
				if c == 0 {
					mapped = arena.Stats().Mapped
				}
			}
			// A background push may still hold its copy of a block.
			waitFor(t, 5*time.Second, "the arena's live bytes to come back", func() bool {
				return arena.Stats().Live == start
			})
			if grew := arena.Stats().Mapped - mapped; grew >= info.Bytes {
				t.Fatalf("mapped bytes grew %d over %d cycles after the first, a staged matrix is %d: closed systems left their blocks behind", grew, cycles-1, info.Bytes)
			}
		})
	}
}

// copyStaged copies a staged matrix's node directories into a fresh root,
// so that every system starts from the same files.
func copyStaged(t *testing.T, from string) string {
	t.Helper()
	to := t.TempDir()
	err := filepath.WalkDir(from, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(from, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(to, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(to, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return to
}
