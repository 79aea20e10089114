package core

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dooc/internal/sparse"
)

// largestBlock is the size of the largest block file under root.
func largestBlock(t *testing.T, root string) int64 {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(root, "node*", "A_*.arr"))
	if err != nil {
		t.Fatal(err)
	}
	var most int64
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		most = max(most, fi.Size())
	}
	return most
}

func symmetricTestMatrix(t *testing.T, dim int, seed int64) *sparse.CSR {
	t.Helper()
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 4, Seed: seed, Symmetric: true})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMirroredRunMatchesFullRun: a symmetric matrix staged mirrored —
// K(K+1)/2 blocks, one pair task per off-diagonal block — iterates to the
// same bits as the same matrix staged whole (stageV1 writes all K² blocks,
// symmetric or not), in core and out of core, on every grid and node count.
func TestMirroredRunMatchesFullRun(t *testing.T) {
	const dim, iters = 61, 4
	m := symmetricTestMatrix(t, dim, 5)
	x0 := randVec(rand.New(rand.NewSource(6)), dim)
	for k := 2; k <= 4; k++ {
		for nodes := 1; nodes <= 3; nodes++ {
			cfg := SpMVConfig{Dim: dim, K: k, Iters: iters, Nodes: nodes}
			for _, tight := range []bool{false, true} {
				run := func(stage func(string, *sparse.CSR, SpMVConfig) error, mirrored bool) string {
					root := t.TempDir()
					if err := stage(root, m, cfg); err != nil {
						t.Fatal(err)
					}
					info, err := DiscoverStagedMatrix(root)
					if err != nil {
						t.Fatal(err)
					}
					files, _ := filepath.Glob(filepath.Join(root, "node*", "A_*.arr"))
					if want := map[bool]int{false: k * k, true: k * (k + 1) / 2}[mirrored]; info.Mirrored != mirrored || len(files) != want || info.NNZ != m.NNZ() || info.Dim != dim {
						t.Fatalf("K=%d nodes=%d: %d files, discovered %+v; want %d files, mirrored %v, %d nnz", k, nodes, len(files), info, want, mirrored, m.NNZ())
					}
					opts := Options{Nodes: nodes, WorkersPerNode: 2, ScratchRoot: root, PrefetchWindow: 2, Reorder: true}
					if tight {
						opts.MemoryBudget = 2*largestBlock(t, root) + 1<<12
					}
					sys, err := NewSystem(opts)
					if err != nil {
						t.Fatal(err)
					}
					defer sys.Close()
					res, err := RunIteratedSpMV(sys, cfg, x0)
					if err != nil {
						t.Fatalf("K=%d nodes=%d tight=%v mirrored=%v: %v", k, nodes, tight, mirrored, err)
					}
					return shaOf(res.X)
				}
				if full, half := run(stageV1, false), run(StageMatrix, true); full != half {
					t.Errorf("K=%d nodes=%d tight=%v: mirrored run %s, full run %s", k, nodes, tight, half[:16], full[:16])
				}
			}
		}
	}
}

// TestMirroredRestageOverFullGrid: staging a symmetric matrix into a root
// that holds a full grid of the same K — doocgen -out reuses directories —
// removes the stale mirror blocks, so the root is discovered mirrored and
// runs the new matrix, not the old one's leftovers.
func TestMirroredRestageOverFullGrid(t *testing.T) {
	const dim, k, nodes = 48, 3, 2
	cfg := SpMVConfig{Dim: dim, K: k, Iters: 3, Nodes: nodes}
	m := symmetricTestMatrix(t, dim, 11)
	x0 := randVec(rand.New(rand.NewSource(12)), dim)
	run := func(root string) string {
		info, err := DiscoverStagedMatrix(root)
		if err != nil {
			t.Fatal(err)
		}
		files, _ := filepath.Glob(filepath.Join(root, "node*", "A_*.arr"))
		if !info.Mirrored || len(files) != k*(k+1)/2 || info.NNZ != m.NNZ() {
			t.Fatalf("%s: %d files, discovered %+v; want %d files, mirrored, %d nnz", root, len(files), info, k*(k+1)/2, m.NNZ())
		}
		sys, err := NewSystem(Options{Nodes: nodes, WorkersPerNode: 2, ScratchRoot: root})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		res, err := RunIteratedSpMV(sys, cfg, x0)
		if err != nil {
			t.Fatal(err)
		}
		return shaOf(res.X)
	}
	fresh := t.TempDir()
	if err := StageMatrix(fresh, m, cfg); err != nil {
		t.Fatal(err)
	}
	reused := t.TempDir()
	if err := stageV1(reused, symmetricTestMatrix(t, dim, 13), cfg); err != nil {
		t.Fatal(err)
	}
	if err := StageMatrix(reused, m, cfg); err != nil {
		t.Fatal(err)
	}
	if want, got := run(fresh), run(reused); got != want {
		t.Fatalf("re-staged root runs to %s, a fresh one to %s", got[:16], want[:16])
	}
}

// TestMirroredStagingBalance: the choice of which block of a pair to stage
// keeps every node's staged nonzeros, and bytes, within one off-diagonal
// block of an even share.
func TestMirroredStagingBalance(t *testing.T) {
	const dim = 240
	m := symmetricTestMatrix(t, dim, 9)
	for k := 2; k <= 6; k++ {
		for nodes := 1; nodes <= k; nodes++ {
			cfg := SpMVConfig{Dim: dim, K: k, Iters: 1, Nodes: nodes}
			bytesHeld, nnzHeld := make([]int64, nodes), make([]int64, nodes)
			var blockBytes, blockNNZ int64 // the largest off-diagonal block
			_, err := stageMatrix(m, cfg, func(u, v int, block []byte) error {
				b, err := sparse.DecodeCRSBytes(block)
				if err != nil {
					return err
				}
				bytesHeld[cfg.OwnerOf(u)] += int64(len(block))
				nnzHeld[cfg.OwnerOf(u)] += b.NNZ()
				if u != v {
					blockBytes, blockNNZ = max(blockBytes, int64(len(block))), max(blockNNZ, b.NNZ())
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				what  string
				held  []int64
				block int64
			}{{"nonzeros", nnzHeld, blockNNZ}, {"bytes", bytesHeld, blockBytes}} {
				var total int64
				for _, h := range c.held {
					total += h
				}
				share := float64(total) / float64(nodes)
				for n, h := range c.held {
					if math.Abs(float64(h)-share) > float64(c.block) {
						t.Errorf("K=%d nodes=%d: node %d holds %d staged %s, the share is %.0f, a block %d", k, nodes, n, h, c.what, share, c.block)
					}
				}
			}
		}
	}
}
