// Eigenvalue: the paper's end-to-end scientific workflow at laptop scale.
//
// Build a toy Configuration-Interaction Hamiltonian (the nuclear-structure
// problem of Section II), stage it out-of-core as a K×K grid of CRS blocks,
// and compute its lowest eigenvalues with Lanczos whose every SpMV runs
// through the DOoC middleware — storage leases, affinity placement,
// data-aware local scheduling, prefetching, LRU eviction.
//
//	go run ./examples/eigenvalue
package main

import (
	"fmt"
	"log"
	"os"

	"dooc/internal/ci"
	"dooc/internal/core"
	"dooc/internal/lanczos"
)

func main() {
	log.SetFlags(0)

	// 1. The physics: enumerate the many-body basis and assemble H.
	basisCfg := ci.BasisConfig{A: 3, Nmax: 3, M2: 1}
	basis, err := ci.BuildBasis(basisCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CI basis: A=%d, Nmax=%d, Mj=%d/2 -> D = %d Slater determinants\n",
		basisCfg.A, basisCfg.Nmax, basisCfg.M2, basis.Dim())
	h, err := ci.Hamiltonian(basis, ci.HamiltonianConfig{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Hamiltonian: %d nonzeros (density %.4f), symmetric 2-body structure\n",
		h.NNZ(), float64(h.NNZ())/float64(basis.Dim())/float64(basis.Dim()))

	// 2. Stage out-of-core and start the DOoC system.
	root, err := os.MkdirTemp("", "dooc-eigen")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)
	cfg := core.SpMVConfig{Dim: basis.Dim(), K: 4, Iters: 1, Nodes: 2}
	if err := core.StageMatrix(root, h, cfg); err != nil {
		log.Fatal(err)
	}
	sys, err := core.NewSystem(core.Options{
		Nodes:          2,
		WorkersPerNode: 2,
		ScratchRoot:    root,
		MemoryBudget:   1 << 22, // 4 MiB per node: forces real out-of-core traffic
		PrefetchWindow: 2,
		Reorder:        true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// 3. Lanczos over the out-of-core operator, with the Lanczos basis
	// itself spilled to scratch: neither the matrix nor the Krylov basis
	// stays resident.
	op := &core.Operator{Sys: sys, Cfg: cfg}
	krylov := &core.BasisStore{Store: sys.Store(0), Spill: true}
	steps := 40
	if steps > basis.Dim() {
		steps = basis.Dim()
	}
	res, err := lanczos.Solve(op, lanczos.Options{Steps: steps, Seed: 1, Basis: krylov})
	if err != nil {
		log.Fatal(err)
	}
	defer krylov.Close()
	fmt.Printf("\nLanczos: %d steps, %d out-of-core SpMV programs, %d spilled basis vectors\n",
		res.Steps, op.Calls(), krylov.Len())
	fmt.Println("lowest eigenvalues (energies) and residual estimates:")
	for i, ev := range res.Lowest(5) {
		fmt.Printf("  E%d = %12.6f   (residual ~ %.2e)\n", i, ev, res.Residuals[i])
	}

	var disk, peer int64
	for n := 0; n < sys.Nodes(); n++ {
		st := sys.Store(n).Stats()
		disk += st.BytesReadDisk
		peer += st.BytesFetchedPeer
	}
	fmt.Printf("\nout-of-core traffic: %.1f MB read from scratch, %.2f MB over the network\n",
		float64(disk)/1e6, float64(peer)/1e6)
}
