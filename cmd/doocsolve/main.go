// Command doocsolve runs an iterative solver over a staged out-of-core
// matrix: Lanczos eigenvalues (default), CG or Jacobi linear solves, or the
// power method — every matrix application executing through the DOoC
// middleware.
//
// Usage:
//
//	doocgen  -out /tmp/stage -dim 4000 -nnz 400000 -k 4 -nodes 2 -symmetric
//	doocsolve -dir /tmp/stage -solver lanczos -steps 30 -want 4
//	doocsolve -dir /tmp/stage -solver cg
//	doocsolve -dir /tmp/stage -solver power
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"

	"dooc/internal/core"
	"dooc/internal/lanczos"
	"dooc/internal/solvers"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("doocsolve: ")
	var (
		dir      = flag.String("dir", "", "staged matrix directory (required)")
		solver   = flag.String("solver", "lanczos", "lanczos | cg | jacobi | power")
		steps    = flag.Int("steps", 30, "lanczos: Krylov steps")
		want     = flag.Int("want", 4, "lanczos: eigenvalues to print")
		tol      = flag.Float64("tol", 1e-8, "cg/jacobi/power: tolerance")
		maxIter  = flag.Int("maxiter", 5000, "cg/jacobi/power: iteration cap")
		mem      = flag.Int64("mem", 1<<28, "per-node memory budget in bytes")
		workers  = flag.Int("workers", 2, "computing filters per node")
		prefetch = flag.Int("prefetch", 2, "prefetch window: ready tasks whose data are kept in memory, the one picked included (0 or 1: none prefetched)")
		seed     = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()
	if *dir == "" {
		flag.Usage()
		os.Exit(2)
	}
	info, err := core.DiscoverStagedMatrix(*dir)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("staged matrix: dim=%d K=%d nodes=%d nnz=%d", info.Dim, info.K, info.Nodes, info.NNZ)
	sys, err := core.NewSystem(core.Options{
		Nodes:          info.Nodes,
		WorkersPerNode: *workers,
		MemoryBudget:   *mem,
		ScratchRoot:    *dir,
		PrefetchWindow: *prefetch,
		Reorder:        true,
		Seed:           *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	op := &core.Operator{Sys: sys, Cfg: core.SpMVConfig{Dim: info.Dim, K: info.K, Iters: 1, Nodes: info.Nodes}}

	rng := rand.New(rand.NewSource(*seed))
	rhs := make([]float64, info.Dim)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}

	switch *solver {
	case "lanczos":
		// The Krylov basis also lives in storage, spilled to scratch.
		basis := &core.BasisStore{Store: sys.Store(0), Spill: true}
		defer basis.Close()
		res, err := lanczos.Solve(op, lanczos.Options{Steps: *steps, Seed: *seed, Basis: basis})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("lanczos: %d steps, %d SpMV programs, %d spilled basis vectors\n",
			res.Steps, res.SpMVs, basis.Len())
		for i, ev := range res.Lowest(*want) {
			fmt.Printf("  eig[%d] = %.10g  (residual ~ %.2e)\n", i, ev, res.Residuals[i])
		}
	case "cg":
		x, st, err := solvers.CG(op, rhs, solvers.CGOptions{Tol: *tol, MaxIter: *maxIter})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("cg: converged=%v iters=%d relative-residual=%.2e ||x||=%.6g\n",
			st.Converged, st.Iterations, st.Residual, norm(x))
	case "jacobi":
		// The operator hides entries; approximate D from probing e_i would
		// cost dim SpMVs, so require the staged matrix to be diagonally
		// dominant with the generator's unit-ish diagonal. For general use,
		// prefer cg.
		diag := make([]float64, info.Dim)
		for i := range diag {
			diag[i] = 1
		}
		x, st, err := solvers.Jacobi(op, rhs, solvers.JacobiOptions{Diag: diag, Tol: *tol, MaxIter: *maxIter})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("jacobi: converged=%v iters=%d residual=%.2e ||x||=%.6g\n",
			st.Converged, st.Iterations, st.Residual, norm(x))
	case "power":
		lambda, _, st, err := solvers.Power(op, solvers.PowerOptions{Tol: *tol, MaxIter: *maxIter})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("power: converged=%v iters=%d dominant eigenvalue=%.10g\n", st.Converged, st.Iterations, lambda)
	default:
		log.Fatalf("unknown solver %q", *solver)
	}
	var disk, peer int64
	for n := 0; n < sys.Nodes(); n++ {
		st := sys.Store(n).Stats()
		disk += st.BytesReadDisk
		peer += st.BytesFetchedPeer
	}
	fmt.Printf("out-of-core traffic: %.1f MB disk, %.2f MB network\n",
		float64(disk)/1e6, float64(peer)/1e6)
}

func norm(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}
