// Command doocgen generates partitioned sparse matrices for out-of-core
// iterated SpMV runs, using the paper's random-gap scheme (Section V) or
// the toy Configuration-Interaction model (Section II).
//
// Usage:
//
//	doocgen -out /tmp/stage -dim 20000 -nnz 2000000 -k 5 -nodes 5 -seed 1
//	doocgen -out /tmp/stage -ci -A 3 -nmax 2 -mj2 1 -k 4 -nodes 2
//
// The output layout (<out>/node<i>/A_<u>_<v>.arr) is what doocrun and
// dooc.NewSystem's ScratchRoot expect. A symmetric matrix (-symmetric, -ci,
// or a symmetric -mtx file) is staged mirrored: K(K+1)/2 blocks, the upper
// triangle of each diagonal block and one block of every mirrored pair.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"dooc/internal/ci"
	"dooc/internal/core"
	"dooc/internal/sparse"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("doocgen: ")
	var (
		out       = flag.String("out", "", "output staging directory (required)")
		dim       = flag.Int("dim", 10000, "matrix dimension (gap generator)")
		nnz       = flag.Int64("nnz", 1000000, "target number of nonzeros (gap generator)")
		k         = flag.Int("k", 4, "grid order: K×K sub-matrices")
		nodes     = flag.Int("nodes", 1, "number of nodes to stage for")
		seed      = flag.Int64("seed", 1, "generator seed")
		symmetric = flag.Bool("symmetric", false, "generate a symmetric matrix, staged as K(K+1)/2 blocks (one of each mirrored pair)")
		useCI     = flag.Bool("ci", false, "build a toy CI Hamiltonian instead of a random-gap matrix")
		a         = flag.Int("A", 3, "CI: particle count")
		nmax      = flag.Int("nmax", 2, "CI: Nmax truncation")
		mj2       = flag.Int("mj2", 1, "CI: twice the Mj projection")
		mtx       = flag.String("mtx", "", "stage an existing MatrixMarket (.mtx) file instead of generating")
	)
	flag.Parse()
	if *out == "" {
		flag.Usage()
		os.Exit(2)
	}

	var m *sparse.CSR
	var err error
	if *mtx != "" {
		m, err = sparse.ReadMatrixMarketFile(*mtx)
		if err != nil {
			log.Fatal(err)
		}
		if m.Rows != m.Cols {
			log.Fatalf("matrix is %dx%d; iterated SpMV needs a square matrix", m.Rows, m.Cols)
		}
	} else if *useCI {
		basis, berr := ci.BuildBasis(ci.BasisConfig{A: *a, Nmax: *nmax, M2: *mj2})
		if berr != nil {
			log.Fatal(berr)
		}
		log.Printf("CI basis: A=%d Nmax=%d Mj=%d/2 -> dimension %d", *a, *nmax, *mj2, basis.Dim())
		m, err = ci.Hamiltonian(basis, ci.HamiltonianConfig{Seed: *seed})
		if err != nil {
			log.Fatal(err)
		}
	} else {
		d := sparse.DForTargetNNZ(*dim, *dim, *nnz)
		m, err = sparse.GapMatrix(sparse.GapGenConfig{
			Rows: *dim, Cols: *dim, D: d, Seed: *seed, Symmetric: *symmetric,
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	stats := sparse.Summarize(m)
	log.Printf("matrix: %dx%d, %d nonzeros (%.2f/row), %.1f MB in CSR",
		stats.Rows, stats.Cols, stats.NNZ, stats.AvgPerRow, float64(stats.Bytes)/1e6)

	cfg := core.SpMVConfig{Dim: m.Rows, K: *k, Iters: 1, Nodes: *nodes}
	if err := core.StageMatrix(*out, m, cfg); err != nil {
		log.Fatal(err)
	}
	info, err := core.DiscoverStagedMatrix(*out)
	if err != nil {
		log.Fatal(err)
	}
	grid := fmt.Sprintf("%dx%d blocks", *k, *k)
	if info.Mirrored {
		grid = fmt.Sprintf("%d blocks of a symmetric %dx%d grid, mirrored,", *k*(*k+1)/2, *k, *k)
	}
	fmt.Printf("staged %s for %d node(s) under %s (%.1f MB on disk; column indices stored as %v)\n",
		grid, *nodes, *out, float64(info.Bytes)/1e6, info.ColumnForms)
}
