package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dooc/internal/spmv"
	"dooc/internal/storage"
)

// Checkpointing: a long iterated-SpMV run can persist every produced
// iterate to the scratch root, so a crashed or interrupted run resumes from
// the last completed iteration instead of from x⁰. The parts of a run tagged
// tag live in ScratchRoot/ckpt/<tag>/, one file x_<t>_<u>.arr a part:
// "ckpt" is no node directory, so the storage startup scan never registers a
// part as an array, and no part shares a name with the run's own arrays.

// Checkpoint describes a resumable state found on disk.
type Checkpoint struct {
	// Iter is the last completed iteration.
	Iter int
	// X is the iterate x[Iter].
	X []float64
}

// Checkpoint files carry a CRC32-C trailer over the payload so a file torn
// by a crash mid-write (or bit-rotted) is detected at load, not silently
// resumed from.
var ckCRC = crc32.MakeTable(crc32.Castagnoli)

const ckTrailerLen = 4

// checkpointDir is the directory of the checkpoint parts of the run tagged
// tag, or "" for a tag that is not one file name.
func checkpointDir(scratchRoot, tag string) string {
	if tag == "." || tag == ".." || filepath.Base(tag) != tag {
		return ""
	}
	return filepath.Join(scratchRoot, "ckpt", tag)
}

// writeCheckpointFile persists one checkpoint part atomically (tmp +
// rename) with its CRC32-C trailer, so the resume scan never observes a
// half-written part under the final name.
func writeCheckpointFile(dst string, data []byte) error {
	var trailer [ckTrailerLen]byte
	binary.LittleEndian.PutUint32(trailer[:], crc32.Checksum(data, ckCRC))
	tmp := dst + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		_, err = f.Write(trailer[:])
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, dst)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// readCheckpointPart loads and verifies one part, returning exactly want
// payload bytes.
func readCheckpointPart(path string, want int) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) != want+ckTrailerLen {
		return nil, fmt.Errorf("core: checkpoint part %s truncated (%d bytes, want %d)", path, len(raw), want+ckTrailerLen)
	}
	if crc32.Checksum(raw[:want], ckCRC) != binary.LittleEndian.Uint32(raw[want:]) {
		return nil, fmt.Errorf("core: checkpoint part %s fails its CRC32-C", path)
	}
	return raw[:want], nil
}

// LatestCheckpoint scans the checkpoint directory of a tagged run for the
// newest complete and *valid* iterate: every part must pass its length and
// checksum, and a corrupt latest iteration (crash mid-write) falls back to
// the previous valid one instead of failing the resume. Returns (nil, nil)
// when no valid checkpoint exists.
func LatestCheckpoint(scratchRoot string, cfg SpMVConfig) (*Checkpoint, error) {
	dir := checkpointDir(scratchRoot, cfg.Tag)
	if dir == "" {
		return nil, fmt.Errorf("core: checkpointed runs need a stable Tag that is one file name, not %q", cfg.Tag)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p, err := cfg.Partition()
	if err != nil {
		return nil, err
	}
	files, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	// Find, per iteration index, which vector parts exist on disk.
	parts := map[int]int{} // iter -> parts found
	for _, f := range files {
		var t, u int
		if _, err := fmt.Sscanf(f.Name(), "x_%d_%d.arr", &t, &u); err == nil && f.Name() == spmv.VecArray(t, u)+".arr" && 0 <= u && u < cfg.K {
			parts[t]++
		}
	}
	// Candidate iterations with a complete part set, newest first; the first
	// whose every part verifies wins.
	var cands []int
	for t, n := range parts {
		if n == cfg.K {
			cands = append(cands, t)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(cands)))
	for _, t := range cands {
		x := make([]float64, cfg.Dim)
		ok := true
		for u := 0; u < cfg.K && ok; u++ {
			raw, err := readCheckpointPart(filepath.Join(dir, spmv.VecArray(t, u)+".arr"), 8*p.Size(u))
			if ok = err == nil; ok {
				storage.DecodeFloat64sInto(x[p.Start(u):p.Start(u+1)], raw)
			}
		}
		if ok {
			return &Checkpoint{Iter: t, X: x}, nil
		}
	}
	return nil, nil
}

// ResumeIteratedSpMV runs a *checkpointed* iterated SpMV to cfg.Iters total
// iterations: it loads the newest checkpoint (or starts from x0 if none)
// and executes only the remaining iterations, writing every produced
// iterate to a checkpoint file, of which the two newest complete iterates
// are kept, so the run can be interrupted and resumed again. The returned
// int is the iteration it resumed from. cfg.Tag must be non-empty and stable
// across restarts; the system needs a ScratchRoot.
func ResumeIteratedSpMV(sys *System, cfg SpMVConfig, x0 []float64) (*SpMVResult, int, error) {
	return resumeIteratedSpMV(sys, cfg, x0, nil)
}

// ResumeIteratedSpMVCancel is ResumeIteratedSpMV with a cancellation
// channel — the entry point the durable job layer uses. A cancelled or
// failed run deletes its arrays; its checkpoint parts stay, so the next
// resume picks up where this one stopped.
func ResumeIteratedSpMVCancel(sys *System, cfg SpMVConfig, x0 []float64, cancel <-chan struct{}) (*SpMVResult, int, error) {
	return resumeIteratedSpMV(sys, cfg, x0, cancel)
}

// resumeIteratedSpMV is the run from the newest checkpoint: the same chain
// of segments as a plain run, started at the checkpointed iteration.
func resumeIteratedSpMV(sys *System, cfg SpMVConfig, x0 []float64, cancel <-chan struct{}) (*SpMVResult, int, error) {
	if sys.opts.ScratchRoot == "" {
		return nil, 0, fmt.Errorf("core: checkpointing needs a system with a ScratchRoot")
	}
	ck, err := LatestCheckpoint(sys.opts.ScratchRoot, cfg)
	if err != nil {
		return nil, 0, err
	}
	start, x := 0, x0
	if ck != nil {
		start, x = ck.Iter, ck.X
	}
	if start >= cfg.Iters {
		return &SpMVResult{X: x}, start, nil
	}
	// An attempt that died left its arrays on scratch, and the startup scan
	// registered them; no checkpoint part is among them.
	purgeArrays(sys, cfg.prefix())
	dir := checkpointDir(sys.opts.ScratchRoot, cfg.Tag)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, start, err
	}
	res, err := runIteratedSpMV(sys, cfg, start, x, spmvRunOpts{cancel: cancel, sum: checkpointSumExecutor(dir, cfg.prefix())})
	return res, start, err
}

// PurgeRun removes everything a run tagged tag left behind: its arrays —
// registered with a store or only on scratch — and its checkpoint parts.
// Best-effort by design.
func PurgeRun(sys *System, tag string) {
	purgeArrays(sys, tag+":")
	if dir := checkpointDir(sys.opts.ScratchRoot, tag); sys.opts.ScratchRoot != "" && dir != "" {
		os.RemoveAll(dir)
	}
}

// purgeArrays removes every storage array and scratch file of the node
// directories whose name starts with prefix. Registered arrays go through
// the store (which also drops cache residency); unregistered leftovers are
// removed from the filesystem directly.
func purgeArrays(sys *System, prefix string) {
	for node := 0; node < sys.Nodes(); node++ {
		dir := sys.scratchDir(node)
		if dir == "" {
			continue
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasPrefix(name, prefix) {
				continue
			}
			base := name
			for _, suf := range []string{".arr", ".seg", ".blk", ".meta"} {
				if strings.HasSuffix(name, suf) {
					base = strings.TrimSuffix(name, suf)
					break
				}
			}
			if err := sys.Store(node).Delete(base); err != nil {
				// Not registered (e.g. a bare .tmp or an orphaned sidecar):
				// remove the path itself.
				os.RemoveAll(filepath.Join(dir, name))
			}
		}
	}
}

// checkpointSumExecutor wraps the reduction executor: once x[t][u] (the
// array prefix+x_<t>_<u>) is written, its bytes go straight from the
// resident block to the part x_<t>_<u>.arr in dir — raw plus a CRC trailer,
// so a resume scan never needs a codec — and the part of iteration t−2 is
// deleted. A sum of iteration t becomes ready only after every sum of t−1
// has returned, its checkpoint written, so the two newest complete iterates
// are on scratch whenever a process dies, and at most 3×K parts at any
// moment.
func checkpointSumExecutor(dir, prefix string) Executor {
	return func(ctx *ExecContext) error {
		if err := execSum(ctx); err != nil {
			return err
		}
		out := ctx.Task.Outputs[0].Array
		name := strings.TrimPrefix(out, prefix)
		t, _ := spmv.TaskIter(ctx.Task.ID)
		u, _ := spmv.OwnerIndex(name)
		l, err := ctx.Store.RequestBlock(out, 0, storage.PermRead)
		if err != nil {
			return fmt.Errorf("checkpointing %s: %w", out, err)
		}
		err = writeCheckpointFile(filepath.Join(dir, name+".arr"), l.Data)
		l.Release()
		if err != nil {
			return fmt.Errorf("checkpointing %s: %w", out, err)
		}
		if err := os.Remove(filepath.Join(dir, spmv.VecArray(t-2, u)+".arr")); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("checkpointing %s: %w", out, err)
		}
		return nil
	}
}

// scratchDir returns node i's scratch directory (empty when out-of-core is
// disabled).
func (s *System) scratchDir(node int) string {
	if s.opts.ScratchRoot == "" {
		return ""
	}
	return filepath.Join(s.opts.ScratchRoot, fmt.Sprintf("node%d", node))
}
