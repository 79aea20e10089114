// Package bfs implements out-of-core breadth-first search over a blocked
// adjacency matrix — the graph-traversal workload of the paper's Section VI
// discussion ("SSD-accelerated supercomputers are being investigated to
// improve the efficiency of the graph traversal problem", citing the
// Graph500 Leviathan result: a single SSD-equipped node matching a
// 6128-core in-memory cluster).
//
// The adjacency matrix is partitioned into the same K×K block grid as the
// SpMV workload and staged as CRS files; each BFS level is one DOoC task
// program: an "expand" task per staged block (pattern-SpMV over the frontier
// bitset; K*K of them, or K(K+1)/2 for an undirected graph staged mirrored)
// and K "merge" tasks (OR partials, mask visited). Frontier and visited sets are
// immutable versioned arrays, exactly like the solver's iterates. Edges are
// generated with the Graph500 R-MAT recipe.
package bfs

import (
	"fmt"
	"math/rand"

	"dooc/internal/sparse"
)

// RMATConfig parameterizes the Graph500 Kronecker/R-MAT edge generator.
type RMATConfig struct {
	// Scale gives 2^Scale vertices.
	Scale int
	// EdgeFactor is edges per vertex (Graph500 uses 16).
	EdgeFactor int
	// A, B, C are the quadrant probabilities (D = 1-A-B-C);
	// Graph500 uses 0.57, 0.19, 0.19.
	A, B, C float64
	Seed    int64
}

// Graph500Defaults returns the standard R-MAT parameters at a given scale.
func Graph500Defaults(scale int) RMATConfig {
	return RMATConfig{Scale: scale, EdgeFactor: 16, A: 0.57, B: 0.19, C: 0.19, Seed: 1}
}

// RMAT generates an undirected graph as a symmetric pattern matrix
// (values 1). Self-loops are dropped; duplicate edges collapse.
func RMAT(cfg RMATConfig) (*sparse.CSR, error) {
	if cfg.Scale < 1 || cfg.Scale > 24 {
		return nil, fmt.Errorf("bfs: scale %d out of [1,24]", cfg.Scale)
	}
	if cfg.EdgeFactor < 1 {
		return nil, fmt.Errorf("bfs: edge factor %d", cfg.EdgeFactor)
	}
	d := 1 - cfg.A - cfg.B - cfg.C
	if cfg.A <= 0 || cfg.B <= 0 || cfg.C <= 0 || d <= 0 {
		return nil, fmt.Errorf("bfs: quadrant probabilities must be positive and sum < 1")
	}
	n := 1 << cfg.Scale
	rng := rand.New(rand.NewSource(cfg.Seed))
	edges := n * cfg.EdgeFactor
	var ts []sparse.Triplet
	for e := 0; e < edges; e++ {
		i, j := 0, 0
		for bit := cfg.Scale - 1; bit >= 0; bit-- {
			r := rng.Float64()
			switch {
			case r < cfg.A:
				// top-left: nothing set
			case r < cfg.A+cfg.B:
				j |= 1 << bit
			case r < cfg.A+cfg.B+cfg.C:
				i |= 1 << bit
			default:
				i |= 1 << bit
				j |= 1 << bit
			}
		}
		if i == j {
			continue
		}
		ts = append(ts, sparse.Triplet{Row: i, Col: j, Val: 1}, sparse.Triplet{Row: j, Col: i, Val: 1})
	}
	m, err := sparse.FromTriplets(n, n, ts)
	if err != nil {
		return nil, err
	}
	// Collapse duplicate-edge sums back to pattern 1s.
	for k := range m.Val {
		m.Val[k] = 1
	}
	return m, nil
}

// Unreached marks vertices not reachable from the source.
const Unreached = int32(-1)

// Reference computes BFS distances in-core (the test oracle).
func Reference(adj *sparse.CSR, source int) ([]int32, error) {
	if adj.Rows != adj.Cols {
		return nil, fmt.Errorf("bfs: adjacency must be square")
	}
	if source < 0 || source >= adj.Rows {
		return nil, fmt.Errorf("bfs: source %d out of %d", source, adj.Rows)
	}
	dist := make([]int32, adj.Rows)
	for i := range dist {
		dist[i] = Unreached
	}
	dist[source] = 0
	queue := []int32{int32(source)}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for k := adj.RowPtr[v]; k < adj.RowPtr[v+1]; k++ {
			w := adj.ColIdx[k]
			if dist[w] == Unreached {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist, nil
}

// Bitset helpers (bitsets are the frontier/visited currency of the
// out-of-core driver).

// BitsetBytes returns the byte length of an n-bit set.
func BitsetBytes(n int) int { return (n + 7) / 8 }

// SetBit sets bit i.
func SetBit(b []byte, i int) { b[i/8] |= 1 << (i % 8) }

// GetBit reports bit i.
func GetBit(b []byte, i int) bool { return b[i/8]&(1<<(i%8)) != 0 }

// OrInto ORs src into dst.
func OrInto(dst, src []byte) {
	for i := range src {
		dst[i] |= src[i]
	}
}

// AndNot clears from dst every bit set in mask.
func AndNot(dst, mask []byte) {
	for i := range mask {
		dst[i] &^= mask[i]
	}
}

// PopCount counts set bits.
func PopCount(b []byte) int {
	n := 0
	for _, v := range b {
		for v != 0 {
			n += int(v & 1)
			v >>= 1
		}
	}
	return n
}
