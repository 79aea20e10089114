package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"dooc/internal/sparse"
	"dooc/internal/storage"
)

// Checkpointing: a long iterated-SpMV run can persist every produced
// iterate to the scratch directory, so a crashed or interrupted run resumes
// from the last completed iteration instead of from x⁰. This is the
// operational complement of out-of-core execution — the same scratch
// directories, sidecars, and startup scan that hold the matrix also hold
// the solver's progress.

// Checkpoint describes a resumable state found on disk.
type Checkpoint struct {
	// Iter is the last completed iteration.
	Iter int
	// X is the iterate x[Iter].
	X []float64
}

// Checkpoint files carry a CRC32-C trailer over the payload so a file torn
// by a crash mid-write (or bit-rotted) is detected at load, not silently
// resumed from. Trailer-less files the exact payload length are accepted as
// legacy.
var ckCRC = crc32.MakeTable(crc32.Castagnoli)

const ckTrailerLen = 4

// writeCheckpointFile persists one checkpoint part atomically (tmp +
// rename) with its CRC32-C trailer, so the resume scan never observes a
// half-written part under the final name.
func writeCheckpointFile(dst string, data []byte) error {
	buf := make([]byte, len(data)+ckTrailerLen)
	copy(buf, data)
	binary.LittleEndian.PutUint32(buf[len(data):], crc32.Checksum(data, ckCRC))
	tmp := dst + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, dst); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// readCheckpointPart loads and verifies one part, returning exactly want
// payload bytes.
func readCheckpointPart(path string, want int) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	switch len(raw) {
	case want + ckTrailerLen:
		if crc32.Checksum(raw[:want], ckCRC) != binary.LittleEndian.Uint32(raw[want:]) {
			return nil, fmt.Errorf("core: checkpoint part %s fails its CRC32-C", path)
		}
		return raw[:want], nil
	case want:
		// Legacy trailer-less part: length is the only check available.
		return raw, nil
	default:
		return nil, fmt.Errorf("core: checkpoint part %s truncated (%d bytes, want %d)", path, len(raw), want)
	}
}

// LatestCheckpoint scans the scratch layout for the newest complete and
// *valid* iterate of a tagged run: every part must pass its length and
// checksum, and a corrupt latest iteration (crash mid-write) falls back to
// the previous valid one instead of failing the resume. Returns (nil, nil)
// when no valid checkpoint exists.
func LatestCheckpoint(scratchRoot string, cfg SpMVConfig) (*Checkpoint, error) {
	if cfg.Tag == "" {
		return nil, fmt.Errorf("core: checkpointed runs need a stable Tag")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p, err := cfg.Partition()
	if err != nil {
		return nil, err
	}
	prefix := cfg.Tag + ":"
	// Find, per iteration index, which vector parts exist on disk.
	parts := map[int]map[int]string{} // iter -> u -> file path
	entries, err := os.ReadDir(scratchRoot)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "node") {
			continue
		}
		files, err := os.ReadDir(filepath.Join(scratchRoot, e.Name()))
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			name := f.Name()
			if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".arr") {
				continue
			}
			var t, u int
			if _, err := fmt.Sscanf(strings.TrimPrefix(name, prefix), "x_%d_%d.arr", &t, &u); err != nil {
				continue
			}
			if parts[t] == nil {
				parts[t] = map[int]string{}
			}
			parts[t][u] = filepath.Join(scratchRoot, e.Name(), name)
		}
	}
	// Candidate iterations with a complete part set, newest first; the first
	// whose every part verifies wins.
	var cands []int
	for t, us := range parts {
		if len(us) == cfg.K {
			cands = append(cands, t)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(cands)))
	for _, t := range cands {
		x := make([]float64, cfg.Dim)
		ok := true
		for u := 0; u < cfg.K; u++ {
			raw, err := readCheckpointPart(parts[t][u], 8*p.Size(u))
			if err != nil {
				ok = false
				break
			}
			storage.DecodeFloat64sInto(x[p.Start(u):p.Start(u+1)], raw)
		}
		if ok {
			return &Checkpoint{Iter: t, X: x}, nil
		}
	}
	return nil, nil
}

// ResumeIteratedSpMV runs a *checkpointed* iterated SpMV to cfg.Iters total
// iterations: it loads the newest checkpoint (or starts from x0 if none)
// and executes only the remaining iterations, flushing every produced
// iterate so the run can be interrupted and resumed again. The returned int
// is the iteration it resumed from. cfg.Tag must be non-empty and stable
// across restarts; the system needs a ScratchRoot.
func ResumeIteratedSpMV(sys *System, cfg SpMVConfig, x0 []float64) (*SpMVResult, int, error) {
	return resumeIteratedSpMV(sys, cfg, x0, nil)
}

// ResumeIteratedSpMVCancel is ResumeIteratedSpMV with a cancellation
// channel — the entry point the durable job layer uses. A cancelled or
// failed segment run deletes its transient arrays (the checkpoint files
// stay, so the next resume picks up where this one stopped).
func ResumeIteratedSpMVCancel(sys *System, cfg SpMVConfig, x0 []float64, cancel <-chan struct{}) (*SpMVResult, int, error) {
	return resumeIteratedSpMV(sys, cfg, x0, cancel)
}

func resumeIteratedSpMV(sys *System, cfg SpMVConfig, x0 []float64, cancel <-chan struct{}) (*SpMVResult, int, error) {
	if sys.opts.ScratchRoot == "" {
		return nil, 0, fmt.Errorf("core: checkpointing needs a system with a ScratchRoot")
	}
	ck, err := LatestCheckpoint(sys.opts.ScratchRoot, cfg)
	if err != nil {
		return nil, 0, err
	}
	start := 0
	x := x0
	if ck != nil {
		start = ck.Iter
		x = ck.X
	}
	if start >= cfg.Iters {
		return &SpMVResult{X: x}, start, nil
	}
	rest := cfg
	rest.Iters = cfg.Iters - start
	// Offset the tag per segment so array names of the segment runs never
	// collide; checkpoint files keep the global iteration index.
	rest.Tag = fmt.Sprintf("%s@%d", cfg.Tag, start)
	res, err := runIteratedSpMV(sys, rest, x, spmvRunOpts{
		cancel:         cancel,
		checkpoint:     true,
		checkpointTag:  cfg.Tag,
		checkpointBase: start,
	})
	if err != nil {
		DeleteSpMVArrays(sys, rest)
		return nil, start, err
	}
	return res, start, nil
}

// PurgeTaggedArtifacts removes every storage array and scratch file whose
// name starts with prefix — the cleanup recovery runs before re-resuming a
// job, because a crashed segment run leaves partially-written arrays that
// the storage startup scan re-registered and a fresh segment run would
// collide with on Create. Registered arrays go through the store (which
// also drops cache residency); unregistered leftovers are removed from the
// filesystem directly. Best-effort by design.
func PurgeTaggedArtifacts(sys *System, prefix string) {
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
			sys.invalidateDecoded(base)
			if err := sys.Store(node).Delete(base); err != nil {
				// Not registered (e.g. a bare .tmp or an orphaned sidecar):
				// remove the path itself.
				os.RemoveAll(filepath.Join(dir, name))
			}
		}
	}
}

// checkpointSumExecutor wraps the reduction executor: after x[t][u] is
// written, it is flushed to scratch and hard-linked to the global
// checkpoint name the resume scan looks for.
func checkpointSumExecutor(sys *System, runPrefix, ckTag string, base int, p sparse.GridPartition) Executor {
	inner := execSum
	return func(ctx *ExecContext) error {
		if err := inner(ctx); err != nil {
			return err
		}
		out := ctx.Task.Outputs[0].Array
		if err := ctx.Store.Flush(out); err != nil {
			return fmt.Errorf("checkpointing %s: %w", out, err)
		}
		// The flushed array carries the segment-local name
		// "<runPrefix>x_<t>_<u>". Persist it under the global checkpoint name
		// "<ckTag>:x_<base+t>_<u>" so LatestCheckpoint finds it. The read-back
		// goes through the store, not the filesystem: the flushed layout may
		// be a raw .arr file or a .seg file of compressed frames, and the
		// checkpoint file itself stays raw (plus CRC trailer) so resume scans
		// never need a codec.
		var t, u int
		if _, err := fmt.Sscanf(strings.TrimPrefix(out, runPrefix), "x_%d_%d", &t, &u); err != nil {
			return fmt.Errorf("checkpointing %s: cannot parse name: %w", out, err)
		}
		dst := filepath.Join(sys.scratchDir(ctx.Node), fmt.Sprintf("%s:x_%d_%d.arr", ckTag, base+t, u))
		data, err := ctx.Store.ReadAll(out)
		if err != nil {
			return fmt.Errorf("checkpointing %s: %w", out, err)
		}
		if err := writeCheckpointFile(dst, data); err != nil {
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
