package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"dooc/internal/compress"
	"dooc/internal/core"
	"dooc/internal/obs"
	"dooc/internal/remote"
	"dooc/internal/sparse"
	"dooc/internal/spmv"
	"dooc/internal/storage"
)

// codecRun quantifies the adaptive block-compression subsystem
// (internal/compress) end to end: per-codec ratio and throughput on the
// payloads the runtime actually moves, staged-matrix disk bytes (what
// StageMatrix writes against the same blocks as uncompressed DOOCCRS1 files,
// written here for the comparison), spill traffic and iterate time
// under a compressed scratch store, and wire bytes between a remote client
// and server that negotiated the default codec. The matrix values are
// quantized to 1/1024 steps — the limited-precision structure of physical
// matrix elements — because uniformly random mantissas are incompressible
// by construction (the random row of the table shows the bail-out handling
// exactly that case).
func codecRun() error {
	const dim, k, nodes, iters = 4000, 4, 2, 3
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 6, Seed: 17})
	if err != nil {
		return err
	}
	for i, v := range m.Val {
		m.Val[i] = math.Round(v*1024) / 1024
	}
	fmt.Printf("matrix: %dx%d, %d nnz, values quantized to 1/1024 steps\n\n", dim, dim, m.NNZ())

	// --- per-codec microbenchmark on the natural payloads ------------------
	rowptr := make([]byte, 8*len(m.RowPtr))
	for j, p := range m.RowPtr {
		binary.LittleEndian.PutUint64(rowptr[8*j:], uint64(p))
	}
	colidx := make([]byte, 4*len(m.ColIdx))
	for j, c := range m.ColIdx {
		binary.LittleEndian.PutUint32(colidx[4*j:], uint32(c))
	}
	values := make([]byte, 8*len(m.Val))
	for j, v := range m.Val {
		binary.LittleEndian.PutUint64(values[8*j:], math.Float64bits(v))
	}
	random := make([]byte, 1<<20)
	rand.New(rand.NewSource(99)).Read(random)

	fmt.Println("per-codec ratio and throughput (adaptive frames, CRC-verified decode):")
	fmt.Println("  codec    payload          raw KB   ratio   enc MB/s  dec MB/s  note")
	cases := []struct {
		codec   string
		payload string
		data    []byte
	}{
		{"raw", "values", values},
		{"delta64", "row pointers", rowptr},
		{"delta32", "column indices", colidx},
		{"fshuf", "values", values},
		{"fshuf", "random bytes", random},
	}
	for _, c := range cases {
		codec, ok := compress.ByName(c.codec)
		if !ok {
			return fmt.Errorf("codec %q not registered", c.codec)
		}
		frame, used, encMBs := benchEncode(codec, c.data)
		decMBs, err := benchDecode(frame, c.data)
		if err != nil {
			return err
		}
		note := ""
		if used.ID() != codec.ID() {
			note = "bailed out to raw (incompressible)"
		}
		fmt.Printf("  %-7s  %-15s  %-7.0f  %-6.2f  %-8.0f  %-8.0f  %s\n",
			c.codec, c.payload, float64(len(c.data))/1e3,
			float64(len(c.data))/float64(len(frame)), encMBs, decMBs, note)
	}

	// What WriteCRS2 does with these column indices instead of delta32: no
	// codec at all, so there is nothing to time — a view aliases the section
	// and the kernel adds the gaps up as it multiplies.
	if w := sparse.ColGapWidth(m); w != 0 {
		stored := 4*m.Rows + w*len(m.ColIdx)
		fmt.Printf("  %-7s  %-15s  %-7.0f  %-6.2f  %-8s  %-8s  %s\n", fmt.Sprintf("gap%d", 8*w), "column indices",
			float64(len(colidx))/1e3, float64(len(colidx))/float64(stored), "-", "-", "first column per row + in-row gaps, never inflated")
	}

	// --- staged matrix: uncompressed baseline vs what StageMatrix writes ---
	cfg := core.SpMVConfig{Dim: dim, K: k, Iters: iters, Nodes: nodes, Tag: "codec"}
	rawRoot, err := os.MkdirTemp("", "doocbench-codec-raw")
	if err != nil {
		return err
	}
	defer os.RemoveAll(rawRoot)
	encRoot, err := os.MkdirTemp("", "doocbench-codec-enc")
	if err != nil {
		return err
	}
	defer os.RemoveAll(encRoot)
	if err := stageUncompressed(rawRoot, m, cfg); err != nil {
		return err
	}
	if err := core.StageMatrix(encRoot, m, cfg); err != nil {
		return err
	}
	rawInfo, err := core.DiscoverStagedMatrix(rawRoot)
	if err != nil {
		return err
	}
	encInfo, err := core.DiscoverStagedMatrix(encRoot)
	if err != nil {
		return err
	}
	fmt.Printf("\nstaged matrix on disk (K=%d, %d nodes):\n", k, nodes)
	fmt.Printf("  uncompressed        %8.2f MB   (12 bytes a nonzero; no stager writes it, the reader still takes it)\n", float64(rawInfo.Bytes)/1e6)
	fmt.Printf("  as staged           %8.2f MB   (%.2fx smaller; column indices as %v)\n",
		float64(encInfo.Bytes)/1e6, float64(rawInfo.Bytes)/float64(encInfo.Bytes), encInfo.ColumnForms)

	// --- end-to-end iterate: raw vs compressed scratch ---------------------
	rng := rand.New(rand.NewSource(4))
	x0 := make([]float64, dim)
	for i := range x0 {
		x0[i] = math.Round(rng.NormFloat64()*256) / 256
	}
	run := func(root string, codec compress.Codec) (*core.SpMVResult, error) {
		sys, err := core.NewSystem(core.Options{
			Nodes:          nodes,
			WorkersPerNode: 2,
			MemoryBudget:   1 << 22, // force spills and re-reads
			ScratchRoot:    root,
			PrefetchWindow: 2,
			Reorder:        true,
			Codec:          codec,
			Obs:            benchObs,
			Trace:          benchTrace,
		})
		if err != nil {
			return nil, err
		}
		defer sys.Close()
		// Checkpointed runs flush every iterate, so the produced vectors
		// really travel through the (possibly compressing) spill path.
		res, _, err := core.ResumeIteratedSpMV(sys, cfg, x0)
		return res, err
	}
	rawRes, err := run(rawRoot, nil)
	if err != nil {
		return err
	}
	encRes, err := run(encRoot, compress.Default())
	if err != nil {
		return err
	}
	for i := range rawRes.X {
		if math.Float64bits(rawRes.X[i]) != math.Float64bits(encRes.X[i]) {
			return fmt.Errorf("compressed run diverged from raw run at entry %d", i)
		}
	}
	spillRaw, spillStored := encRes.Stats.CompressRawBytes(), encRes.Stats.CompressStoredBytes()
	rawSpill := rawRes.Stats.BytesWrittenDisk()
	fmt.Printf("\nend-to-end iterated SpMV (%d iterations, checkpointed, %s spills):\n",
		iters, compress.Default().Name())
	fmt.Printf("  raw scratch         time %-12v  spill writes %8.2f MB\n",
		rawRes.Stats.Wall.Round(time.Millisecond), float64(rawSpill)/1e6)
	fmt.Printf("  compressed scratch  time %-12v  spill writes %8.2f MB  (%.2fx, %d bail-outs)\n",
		encRes.Stats.Wall.Round(time.Millisecond), float64(spillStored)/1e6,
		float64(spillRaw)/float64(spillStored), encRes.Stats.CompressBailouts())
	fmt.Println("  iterates are bit-identical across both runs")

	// --- wire: negotiated codec vs plain TCP -------------------------------
	// A single-node staging so one served scratch directory holds every
	// block (the 2-node layout splits them across node dirs), uncompressed:
	// blocks as staged leave the wire codec nothing to take.
	wireRoot, err := os.MkdirTemp("", "doocbench-codec-wire")
	if err != nil {
		return err
	}
	defer os.RemoveAll(wireRoot)
	wireCfg := cfg
	wireCfg.Nodes = 1
	if err := stageUncompressed(wireRoot, m, wireCfg); err != nil {
		return err
	}
	wire := func(codec compress.Codec) (int64, int64, error) {
		reg := obs.NewRegistry()
		st, err := storage.NewLocal(storage.Config{
			MemoryBudget: 1 << 28, ScratchDir: wireRoot + "/node0", IOWorkers: 4,
		})
		if err != nil {
			return 0, 0, err
		}
		defer st.Close()
		srv, err := remote.ListenOptions(st, "127.0.0.1:0", remote.ServerOptions{Obs: reg})
		if err != nil {
			return 0, 0, err
		}
		defer srv.Close()
		cl, err := remote.DialOptions(srv.Addr(), remote.Options{Codec: codec, Obs: reg})
		if err != nil {
			return 0, 0, err
		}
		defer cl.Close()
		var payload int64
		for u := 0; u < k; u++ {
			for v := 0; v < k; v++ {
				data, err := cl.ReadAll(fmt.Sprintf("A_%03d_%03d", u, v))
				if err != nil {
					return 0, 0, err
				}
				payload += int64(len(data))
			}
		}
		return payload, srv.BytesOut(), nil
	}
	payload, plainWire, err := wire(nil)
	if err != nil {
		return err
	}
	_, codecWire, err := wire(compress.Default())
	if err != nil {
		return err
	}
	fmt.Printf("\nwire bytes for all %d blocks of node 0 (%.2f MB of payload) over TCP:\n", k*k, float64(payload)/1e6)
	fmt.Printf("  plain client        %8.2f MB\n", float64(plainWire)/1e6)
	fmt.Printf("  negotiated %-8s %8.2f MB   (%.2fx smaller)\n",
		compress.Default().Name(), float64(codecWire)/1e6, float64(plainWire)/float64(codecWire))

	// --- the headline ------------------------------------------------------
	before := rawInfo.Bytes + rawSpill + plainWire
	after := encInfo.Bytes + spillStored + codecWire
	fmt.Printf("\ncombined scratch+wire traffic: %.2f MB -> %.2f MB — %.2fx reduction with the default codec\n",
		float64(before)/1e6, float64(after)/1e6, float64(before)/float64(after))
	if float64(before) < 1.5*float64(after) {
		return fmt.Errorf("combined reduction %.2fx is below the 1.5x the subsystem is designed to clear",
			float64(before)/float64(after))
	}
	return nil
}

// stageUncompressed lays m's blocks out as StageMatrix does, each an
// uncompressed DOOCCRS1 file: the baseline the staged bytes are held against.
func stageUncompressed(root string, m *sparse.CSR, cfg core.SpMVConfig) error {
	p, err := cfg.Partition()
	if err != nil {
		return err
	}
	for i := 0; i < cfg.K*cfg.K; i++ {
		u, v := i/cfg.K, i%cfg.K
		b, err := sparse.Block(m, p, u, v)
		if err != nil {
			return err
		}
		dir := filepath.Join(root, fmt.Sprintf("node%d", cfg.OwnerOf(u)))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		if err := sparse.WriteCRSFile(filepath.Join(dir, spmv.MatrixArray(u, v)+".arr"), b); err != nil {
			return err
		}
	}
	return nil
}

// benchEncode measures adaptive encode throughput, repeating until enough
// work has accumulated for a stable MB/s figure.
func benchEncode(c compress.Codec, data []byte) ([]byte, compress.Codec, float64) {
	var frame []byte
	var used compress.Codec
	reps, elapsed := 0, time.Duration(0)
	for elapsed < 20*time.Millisecond && reps < 200 {
		start := time.Now()
		frame, used = compress.EncodeAdaptive(c, data)
		elapsed += time.Since(start)
		reps++
	}
	return frame, used, float64(len(data)) * float64(reps) / 1e6 / elapsed.Seconds()
}

// benchDecode measures frame decode throughput and verifies the round trip.
func benchDecode(frame, want []byte) (float64, error) {
	var got []byte
	reps, elapsed := 0, time.Duration(0)
	for elapsed < 20*time.Millisecond && reps < 200 {
		start := time.Now()
		out, _, err := compress.DecodeFrame(frame)
		if err != nil {
			return 0, err
		}
		elapsed += time.Since(start)
		got = out
		reps++
	}
	if !bytes.Equal(got, want) {
		return 0, fmt.Errorf("decode round trip mismatch")
	}
	return float64(len(want)) * float64(reps) / 1e6 / elapsed.Seconds(), nil
}
