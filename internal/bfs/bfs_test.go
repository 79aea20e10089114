package bfs

import (
	"errors"
	"slices"
	"testing"

	"dooc/internal/core"
	"dooc/internal/sparse"
	"dooc/internal/storage"
)

func TestRMATProperties(t *testing.T) {
	cfg := Graph500Defaults(8)
	g, err := RMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.Rows != 256 {
		t.Fatalf("rows = %d", g.Rows)
	}
	if !g.IsSymmetric(0) {
		t.Fatal("undirected graph must be symmetric")
	}
	for i := 0; i < g.Rows; i++ {
		if g.At(i, i) != 0 {
			t.Fatalf("self-loop at %d", i)
		}
	}
	for _, v := range g.Val {
		if v != 1 {
			t.Fatalf("pattern value %v", v)
		}
	}
	// Determinism.
	g2, err := RMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NNZ() != g.NNZ() {
		t.Fatal("same seed, different graph")
	}
	// R-MAT skew: max degree far above average.
	st := sparse.Summarize(g)
	if float64(st.MaxPerRow) < 3*st.AvgPerRow {
		t.Errorf("degree distribution not skewed: max %d avg %.1f", st.MaxPerRow, st.AvgPerRow)
	}
}

func TestRMATValidation(t *testing.T) {
	if _, err := RMAT(RMATConfig{Scale: 0, EdgeFactor: 1, A: 0.5, B: 0.2, C: 0.2}); err == nil {
		t.Error("scale 0 accepted")
	}
	if _, err := RMAT(RMATConfig{Scale: 4, EdgeFactor: 0, A: 0.5, B: 0.2, C: 0.2}); err == nil {
		t.Error("edge factor 0 accepted")
	}
	if _, err := RMAT(RMATConfig{Scale: 4, EdgeFactor: 1, A: 0.6, B: 0.3, C: 0.2}); err == nil {
		t.Error("probabilities > 1 accepted")
	}
}

func TestReferenceBFS(t *testing.T) {
	// Path graph 0-1-2-3 plus isolated vertex 4.
	ts := []sparse.Triplet{
		{Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 0, Val: 1},
		{Row: 1, Col: 2, Val: 1}, {Row: 2, Col: 1, Val: 1},
		{Row: 2, Col: 3, Val: 1}, {Row: 3, Col: 2, Val: 1},
	}
	g, err := sparse.FromTriplets(5, 5, ts)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := Reference(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 1, 2, 3, Unreached}
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("dist = %v, want %v", dist, want)
		}
	}
	if _, err := Reference(g, 9); err == nil {
		t.Error("bad source accepted")
	}
}

func TestBitsetHelpers(t *testing.T) {
	b := make([]byte, BitsetBytes(20))
	if len(b) != 3 {
		t.Fatalf("BitsetBytes(20) = %d", len(b))
	}
	SetBit(b, 0)
	SetBit(b, 9)
	SetBit(b, 19)
	if !GetBit(b, 9) || GetBit(b, 10) {
		t.Fatal("bit ops wrong")
	}
	if PopCount(b) != 3 {
		t.Fatalf("popcount = %d", PopCount(b))
	}
	mask := make([]byte, 3)
	SetBit(mask, 9)
	AndNot(b, mask)
	if GetBit(b, 9) || PopCount(b) != 2 {
		t.Fatal("AndNot wrong")
	}
	dst := make([]byte, 3)
	OrInto(dst, b)
	if PopCount(dst) != 2 {
		t.Fatal("OrInto wrong")
	}
}

// TestOutOfCoreBFSMatchesReference is the headline: BFS levels as DOoC task
// programs over staged adjacency blocks, distances equal to the in-core
// oracle, on an R-MAT (Graph500-style) graph. A staged adjacency block is
// viewed with its columns as in-row gaps where its rows are long enough, and
// the expansion reads them through CSR.Columns.
func TestOutOfCoreBFSMatchesReference(t *testing.T) {
	g, err := RMAT(RMATConfig{Scale: 7, EdgeFactor: 4, A: 0.57, B: 0.19, C: 0.19, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	cfg := core.SpMVConfig{Dim: g.Rows, K: 3, Iters: 1, Nodes: 2, Tag: "t"}
	if err := core.StageMatrix(root, g, cfg); err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(core.Options{
		Nodes:          2,
		WorkersPerNode: 2,
		ScratchRoot:    root,
		MemoryBudget:   1 << 16,
		PrefetchWindow: 1,
		Reorder:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	drv := &Driver{Sys: sys, Cfg: cfg}
	got, err := drv.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Reference(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dist[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// The traversal must have touched storage for real.
	var disk int64
	for n := 0; n < sys.Nodes(); n++ {
		disk += sys.Store(n).Stats().BytesReadDisk
	}
	if disk == 0 {
		t.Fatal("no out-of-core traffic during BFS")
	}
}

// TestOutOfCoreBFSDisconnected: unreachable vertices stay Unreached.
func TestOutOfCoreBFSDisconnected(t *testing.T) {
	// Two disjoint edges: 0-1 and 2-3, plus isolated 4..7.
	ts := []sparse.Triplet{
		{Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 0, Val: 1},
		{Row: 2, Col: 3, Val: 1}, {Row: 3, Col: 2, Val: 1},
	}
	g, err := sparse.FromTriplets(8, 8, ts)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(core.Options{Nodes: 1, Reorder: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	cfg := core.SpMVConfig{Dim: 8, K: 2, Iters: 1, Nodes: 1, Tag: "d"}
	if err := core.LoadMatrixInMemory(sys, g, cfg); err != nil {
		t.Fatal(err)
	}
	drv := &Driver{Sys: sys, Cfg: cfg}
	got, err := drv.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 1, Unreached, Unreached, Unreached, Unreached, Unreached, Unreached}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dist = %v, want %v", got, want)
		}
	}
}

// TestOutOfCoreBFSMirrored: an undirected graph is staged mirrored, and one
// expand per staged block — ORing through it into both its own partial and
// its mirror's — still finds every distance, on every grid and node count.
func TestOutOfCoreBFSMirrored(t *testing.T) {
	g, err := RMAT(RMATConfig{Scale: 6, EdgeFactor: 4, A: 0.57, B: 0.19, C: 0.19, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Reference(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for k := 2; k <= 4; k++ {
		for nodes := 1; nodes <= 2; nodes++ {
			root := t.TempDir()
			cfg := core.SpMVConfig{Dim: g.Rows, K: k, Iters: 1, Nodes: nodes, Tag: "m"}
			if err := core.StageMatrix(root, g, cfg); err != nil {
				t.Fatal(err)
			}
			if info, err := core.DiscoverStagedMatrix(root); err != nil || !info.Mirrored {
				t.Fatalf("K=%d nodes=%d: staged %+v, %v; want a mirrored set", k, nodes, info, err)
			}
			sys, err := core.NewSystem(core.Options{Nodes: nodes, WorkersPerNode: 2, ScratchRoot: root, MemoryBudget: 1 << 16, PrefetchWindow: 1, Reorder: true})
			if err != nil {
				t.Fatal(err)
			}
			got, err := (&Driver{Sys: sys, Cfg: cfg}).Run(1)
			sys.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("K=%d nodes=%d: distances %v, want %v", k, nodes, got, want)
			}
		}
	}
}

// TestDriverLeavesNoArrays: a traversal deletes every array it created, on
// success and when a level fails. The failure is forced at level 2 by an
// array already holding the name of that level's first frontier part; that
// array was not created by the traversal, so it stays.
func TestDriverLeavesNoArrays(t *testing.T) {
	g, err := RMAT(RMATConfig{Scale: 8, EdgeFactor: 4, A: 0.57, B: 0.19, C: 0.19, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Reference(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	levels := int(slices.Max(want)) + 2
	for _, failAt := range []int{0, 2} {
		sys, err := core.NewSystem(core.Options{Nodes: 2, Reorder: true})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		cfg := core.SpMVConfig{Dim: g.Rows, K: 4, Iters: 1, Nodes: 2, Tag: "leak"}
		if err := core.LoadMatrixInMemory(sys, g, cfg); err != nil {
			t.Fatal(err)
		}
		drv := &Driver{Sys: sys, Cfg: cfg}
		planted := ""
		if failAt > 0 {
			planted = drv.frontier(failAt, 0)
			if err := sys.Store(cfg.OwnerOf(0)).Create(planted, 8, 8); err != nil {
				t.Fatal(err)
			}
		}
		got, err := drv.Run(0)
		switch {
		case failAt == 0 && err != nil:
			t.Fatal(err)
		case failAt == 0 && !slices.Equal(got, want):
			t.Fatalf("distances %v, want %v", got, want)
		case failAt > 0 && !errors.Is(err, storage.ErrArrayExists):
			t.Fatalf("run over a planted %s: %v, want ErrArrayExists", planted, err)
		}
		for level := 0; level <= levels; level++ {
			for u := 0; u < cfg.K; u++ {
				names := []string{drv.frontier(level, u), drv.visited(level, u)}
				for v := 0; v < cfg.K; v++ {
					names = append(names, drv.partial(level, u, v))
				}
				for _, name := range names {
					for n := 0; n < sys.Nodes(); n++ {
						_, err := sys.Store(n).Info(name)
						if name == planted {
							if err != nil {
								t.Fatalf("the planted %s is gone from node %d: %v", name, n, err)
							}
						} else if !errors.Is(err, storage.ErrUnknownArray) {
							t.Fatalf("failAt %d: %s left on node %d (%v)", failAt, name, n, err)
						}
					}
				}
			}
		}
	}
}
