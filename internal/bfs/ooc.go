package bfs

import (
	"fmt"

	"dooc/internal/core"
	"dooc/internal/dag"
	"dooc/internal/sparse"
	"dooc/internal/spmv"
	"dooc/internal/storage"
)

// Driver runs breadth-first search out-of-core over a staged adjacency
// matrix: each level is one DOoC task program whose dependencies are
// derived from frontier/visited array versions.
type Driver struct {
	Sys *core.System
	// Cfg describes the staged adjacency blocks (Dim, K, Nodes; Iters is
	// ignored). Tag namespaces this traversal's arrays.
	Cfg core.SpMVConfig
}

// levelArrays returns the array names of one BFS level.
func (d *Driver) frontier(level, u int) string {
	return fmt.Sprintf("%s:bfs:f_%d_%d", d.Cfg.Tag, level, u)
}
func (d *Driver) partial(level, u, v int) string {
	return fmt.Sprintf("%s:bfs:fp_%d_%d_%d", d.Cfg.Tag, level, u, v)
}
func (d *Driver) visited(level, u int) string {
	return fmt.Sprintf("%s:bfs:vis_%d_%d", d.Cfg.Tag, level, u)
}

// Run traverses from source and returns per-vertex distances. Every array
// the traversal creates is deleted before Run returns, whether it succeeds
// or fails.
func (d *Driver) Run(source int) ([]int32, error) {
	cfg := d.Cfg
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Tag == "" {
		cfg.Tag = "bfs"
		d.Cfg.Tag = "bfs"
	}
	if source < 0 || source >= cfg.Dim {
		return nil, fmt.Errorf("bfs: source %d out of %d", source, cfg.Dim)
	}
	p, err := cfg.Partition()
	if err != nil {
		return nil, err
	}
	dist := make([]int32, cfg.Dim)
	for i := range dist {
		dist[i] = Unreached
	}
	dist[source] = 0

	// made lists every array this run created. The engine deletes most of
	// them as their last reader retires; what it leaves — the last level's
	// frontier and visited sets, or everything of a failed level — goes
	// here, and a name already gone costs one refused delete.
	var made []string
	defer func() {
		for _, name := range made {
			_ = d.Sys.Store(0).Delete(name)
		}
	}()

	// Seed level 0: frontier = {source}; visited = frontier.
	for u := 0; u < cfg.K; u++ {
		bits := make([]byte, BitsetBytes(p.Size(u)))
		if pu := p.PartOf(source); pu == u {
			SetBit(bits, source-p.Start(u))
		}
		owner := d.Sys.Store(cfg.OwnerOf(u))
		for _, name := range []string{d.frontier(0, u), d.visited(0, u)} {
			if err := owner.WriteArray(name, bits, 0); err != nil {
				return nil, err
			}
			made = append(made, name)
		}
	}

	for level := 1; level <= cfg.Dim; level++ {
		grew, err := d.level(level, p, &made)
		if err != nil {
			return nil, err
		}
		if !grew {
			break
		}
		// Record distances from the new frontier.
		for u := 0; u < cfg.K; u++ {
			raw, err := d.Sys.Store(cfg.OwnerOf(u)).ReadAll(d.frontier(level, u))
			if err != nil {
				return nil, err
			}
			base := p.Start(u)
			for i := 0; i < p.Size(u); i++ {
				if GetBit(raw, i) {
					dist[base+i] = int32(level)
				}
			}
		}
	}
	return dist, nil
}

// level executes one BFS level program; reports whether the new frontier is
// non-empty. It appends each array it creates to made.
func (d *Driver) level(level int, p sparse.GridPartition, made *[]string) (bool, error) {
	cfg := d.Cfg
	// Create this level's arrays.
	ephemeral := map[string]bool{}
	for u := 0; u < cfg.K; u++ {
		owner := d.Sys.Store(cfg.OwnerOf(u))
		fbytes := int64(BitsetBytes(p.Size(u)))
		names := []string{d.frontier(level, u), d.visited(level, u)}
		for v := 0; v < cfg.K; v++ {
			names = append(names, d.partial(level, u, v))
			ephemeral[names[len(names)-1]] = true
		}
		for _, name := range names {
			if err := owner.Create(name, fbytes, fbytes); err != nil {
				return false, err
			}
			*made = append(*made, name)
		}
		// Previous-level frontier and visited die after this level.
		ephemeral[d.frontier(level-1, u)] = true
		ephemeral[d.visited(level-1, u)] = true
	}

	// One expand per staged block. Over a mirrored layout it also scatters
	// through the block into its mirror's partial (on the diagonal, the
	// block's own), as spmv.Program's multiplies do; an OR of bits is the
	// same in any order.
	layout, err := core.MatrixLayout(d.Sys, cfg.K)
	if err != nil {
		return false, err
	}
	kind := "bfs-expand"
	if layout.Mirrored() {
		kind = "bfs-expand-mirror"
	}
	var tasks []*dag.Task
	for u := 0; u < cfg.K; u++ {
		for v := 0; v < cfg.K; v++ {
			if !layout.Staged(u, v) {
				continue
			}
			mat := dag.Ref{Array: spmv.MatrixArray(u, v), Bytes: 1 << 20}
			t := &dag.Task{
				ID:      fmt.Sprintf("expand:%d:%d:%d", level, u, v),
				Kind:    kind,
				Inputs:  []dag.Ref{mat, {Array: d.frontier(level-1, v), Bytes: 64}},
				Outputs: []dag.Ref{{Array: d.partial(level, u, v), Bytes: 64}},
				Heavy:   []dag.Ref{mat},
			}
			if layout.Mirrored() && u != v {
				t.Inputs = append(t.Inputs, dag.Ref{Array: d.frontier(level-1, u), Bytes: 64})
				t.Outputs = append(t.Outputs, dag.Ref{Array: d.partial(level, v, u), Bytes: 64})
			}
			tasks = append(tasks, t)
		}
		in := []dag.Ref{{Array: d.visited(level-1, u), Bytes: 64}}
		for v := 0; v < cfg.K; v++ {
			in = append(in, dag.Ref{Array: d.partial(level, u, v), Bytes: 64})
		}
		tasks = append(tasks, &dag.Task{
			ID:     fmt.Sprintf("merge:%d:%d", level, u),
			Kind:   "bfs-merge",
			Inputs: in,
			Outputs: []dag.Ref{
				{Array: d.frontier(level, u), Bytes: 64},
				{Array: d.visited(level, u), Bytes: 64},
			},
			Heavy: []dag.Ref{},
		})
	}
	locate := func(r dag.Ref) (int, bool) {
		var u int
		if n, _ := fmt.Sscanf(r.Array, "A_%d_", &u); n == 1 {
			return cfg.OwnerOf(u), true
		}
		// Frontier/partial/visited arrays live with their row owner.
		var lvl int
		rest := r.Array
		if i := len(cfg.Tag + ":bfs:"); len(rest) > i {
			rest = rest[i:]
		}
		if n, _ := fmt.Sscanf(rest, "fp_%d_%d_", &lvl, &u); n == 2 {
			return cfg.OwnerOf(u), true
		}
		if n, _ := fmt.Sscanf(rest, "f_%d_%d", &lvl, &u); n == 2 {
			return cfg.OwnerOf(u), true
		}
		if n, _ := fmt.Sscanf(rest, "vis_%d_%d", &lvl, &u); n == 2 {
			return cfg.OwnerOf(u), true
		}
		return 0, false
	}
	if _, err := d.Sys.Run(core.RunSpec{
		Tasks:     tasks,
		Executors: d.executors(),
		Locate:    locate,
		Ephemeral: ephemeral,
	}); err != nil {
		return false, err
	}
	// Non-empty frontier?
	for u := 0; u < cfg.K; u++ {
		raw, err := d.Sys.Store(cfg.OwnerOf(u)).ReadAll(d.frontier(level, u))
		if err != nil {
			return false, err
		}
		if PopCount(raw) > 0 {
			return true, nil
		}
	}
	return false, nil
}

// executors returns the BFS computing filters.
func (d *Driver) executors() map[string]core.Executor {
	return map[string]core.Executor{
		"bfs-expand":        expand,
		"bfs-expand-mirror": expand,
		"bfs-merge": func(ctx *core.ExecContext) error {
			t := ctx.Task
			visLease, err := ctx.Store.RequestBlock(t.Inputs[0].Array, 0, storage.PermRead)
			if err != nil {
				return err
			}
			visited := append([]byte(nil), visLease.Data...)
			visLease.Release()
			next := make([]byte, len(visited))
			for _, in := range t.Inputs[1:] {
				l, err := ctx.Store.RequestBlock(in.Array, 0, storage.PermRead)
				if err != nil {
					return err
				}
				OrInto(next, l.Data)
				l.Release()
			}
			AndNot(next, visited)
			newVis := append([]byte(nil), visited...)
			OrInto(newVis, next)
			for i, ref := range t.Outputs {
				l, err := ctx.Store.RequestBlock(ref.Array, 0, storage.PermWrite)
				if err != nil {
					return err
				}
				if i == 0 {
					copy(l.Data, next)
				} else {
					copy(l.Data, newVis)
				}
				l.Release()
			}
			return nil
		},
	}
}

// expand ORs the frontier through one staged adjacency block: partial bit i
// is set when row i of the block reaches a frontier vertex. A mirrored
// block also sets bit j of its mirror's partial when column j is reached
// from a frontier row — on the diagonal, in the same partial, so its
// triangle covers the whole block.
func expand(ctx *core.ExecContext) error {
	t := ctx.Task
	adj, err := ctx.Matrix(t.Inputs[0].Array)
	if err != nil {
		return err
	}
	read := func(ref dag.Ref) ([]byte, error) {
		l, err := ctx.Store.RequestBlock(ref.Array, 0, storage.PermRead)
		if err != nil {
			return nil, err
		}
		defer l.Release()
		return append([]byte(nil), l.Data...), nil
	}
	frontier, err := read(t.Inputs[1])
	if err != nil {
		return err
	}
	next := make([]byte, BitsetBytes(adj.Rows))
	mirror := t.Kind == "bfs-expand-mirror"
	rowFrontier, nextT := frontier, next // the diagonal: the block is its own mirror
	if len(t.Outputs) == 2 {
		if rowFrontier, err = read(t.Inputs[2]); err != nil {
			return err
		}
		nextT = make([]byte, BitsetBytes(adj.Cols))
	}
	cols := adj.Columns() // a compressed block is viewed as gaps
	for i := 0; i < adj.Rows; i++ {
		scatter := mirror && GetBit(rowFrontier, i)
		for k := adj.RowPtr[i]; k < adj.RowPtr[i+1]; k++ {
			c := int(cols[k])
			if GetBit(frontier, c) {
				SetBit(next, i)
				if !scatter {
					break
				}
			}
			if scatter {
				SetBit(nextT, c)
			}
		}
	}
	for i, bits := range [][]byte{next, nextT}[:len(t.Outputs)] {
		out, err := ctx.Store.RequestBlock(t.Outputs[i].Array, 0, storage.PermWrite)
		if err != nil {
			return err
		}
		copy(out.Data, bits)
		out.Release()
	}
	return nil
}
