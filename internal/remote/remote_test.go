package remote

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dooc/internal/core"
	"dooc/internal/sparse"
	"dooc/internal/storage"
)

// startServer spins up a loopback storage server over a fresh store.
func startServer(t *testing.T, scratch string) (*Server, *Client) {
	t.Helper()
	cfg := storage.Config{MemoryBudget: 1 << 20, Seed: 1}
	if scratch != "" {
		cfg.ScratchDir = scratch
	}
	st, err := storage.NewLocal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Listen(st, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		srv.Close()
		st.Close()
	})
	return srv, cl
}

func TestRemoteCreateWriteRead(t *testing.T) {
	srv, cl := startServer(t, "")
	if err := cl.Create("arr", 64, 32); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("xy"), 16) // 32 bytes
	if err := cl.WriteBlock("arr", 0, payload); err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteBlock("arr", 1, payload); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadBlock("arr", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read %q", got)
	}
	all, err := cl.ReadAll("arr")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 64 {
		t.Fatalf("ReadAll %d bytes", len(all))
	}
	if srv.Requests() == 0 || srv.BytesOut() == 0 || srv.BytesIn() == 0 {
		t.Fatalf("server counters empty: %d req %d out %d in", srv.Requests(), srv.BytesOut(), srv.BytesIn())
	}
}

func TestRemoteImmutability(t *testing.T) {
	_, cl := startServer(t, "")
	if err := cl.Create("imm", 16, 8); err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteBlock("imm", 0, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteBlock("imm", 0, make([]byte, 8)); !errors.Is(err, storage.ErrImmutable) {
		t.Fatalf("remote rewrite: %v, want ErrImmutable", err)
	}
	if err := cl.WriteBlock("imm", 1, make([]byte, 8)); err != nil {
		t.Fatalf("write of the other block: %v", err)
	}
}

// TestWriteBlockPayloadMustFitBlock: a write whose payload is shorter or
// longer than its block is refused, and the block stays unwritten — a
// parked reader keeps waiting, and the next writer with the right length is
// granted.
func TestWriteBlockPayloadMustFitBlock(t *testing.T) {
	srv, cl := startServer(t, "")
	if err := cl.Create("fit", 16, 8); err != nil {
		t.Fatal(err)
	}
	reader, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	got := make(chan []byte, 1)
	go func() {
		data, _ := reader.ReadBlock("fit", 1)
		got <- data
	}()
	for _, n := range []int{4, 12} {
		err := cl.WriteBlock("fit", 1, bytes.Repeat([]byte("x"), n))
		if err == nil || errors.Is(err, storage.ErrImmutable) {
			t.Fatalf("%d-byte write of an 8-byte block: %v, want a length refusal", n, err)
		}
	}
	if srv.store.Resident([]storage.BlockRef{{Array: "fit", Block: 1}}, nil)[0] {
		t.Fatal("a refused write left the block resident")
	}
	if used := srv.store.Stats().MemUsed; used != 0 {
		t.Fatalf("refused writes left %d bytes in memory", used)
	}
	select {
	case data := <-got:
		t.Fatalf("reader woke with %q after refused writes", data)
	case <-time.After(50 * time.Millisecond):
	}
	if err := cl.WriteBlock("fit", 1, []byte("RIGHTLEN")); err != nil {
		t.Fatalf("write after refused ones: %v", err)
	}
	select {
	case data := <-got:
		if string(data) != "RIGHTLEN" {
			t.Fatalf("reader saw %q, want the published bytes", data)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader never woke")
	}
}

func TestRemoteReadBlocksUntilWritten(t *testing.T) {
	// Two clients: one reads an unwritten block (blocking server-side),
	// the other writes it; the read must then complete. This proves the
	// immutable-array discipline crosses the network, and that a blocked
	// read does not stall the connection.
	srv, reader := startServer(t, "")
	writer, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	if err := reader.Create("late", 8, 8); err != nil {
		t.Fatal(err)
	}
	got := make(chan []byte, 1)
	go func() {
		data, err := reader.ReadBlock("late", 0)
		if err != nil {
			got <- nil
			return
		}
		got <- data
	}()
	select {
	case <-got:
		t.Fatal("read completed before write")
	case <-time.After(50 * time.Millisecond):
	}
	// The reader's connection must still serve other requests while the
	// read is parked.
	if _, err := reader.Info("late"); err != nil {
		t.Fatalf("connection stalled by blocked read: %v", err)
	}
	if err := writer.WriteBlock("late", 0, []byte("ARRIVED!")); err != nil {
		t.Fatal(err)
	}
	select {
	case data := <-got:
		if string(data) != "ARRIVED!" {
			t.Fatalf("read %q", data)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read never unblocked")
	}
}

func TestRemoteServesScannedScratch(t *testing.T) {
	// The I/O-node pattern: the server's scratch directory already holds a
	// staged CRS block; a remote compute node fetches it and multiplies.
	dir := t.TempDir()
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: 50, Cols: 50, D: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sparse.WriteCRS(&buf, m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "A.arr"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, cl := startServer(t, dir)
	raw, err := cl.ReadAll("A")
	if err != nil {
		t.Fatal(err)
	}
	got, err := sparse.ReadCRS(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 50)
	x[0], x[49] = 1, -1
	want := make([]float64, 50)
	sparse.MulVec(m, x, want)
	y := make([]float64, 50)
	sparse.MulVec(got, x, y)
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("SpMV over network-fetched block differs at %d", i)
		}
	}
}

func TestRemoteConcurrentClients(t *testing.T) {
	srv, first := startServer(t, "")
	_ = first
	const clients, arrays = 6, 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(int64(c)))
			for a := 0; a < arrays; a++ {
				name := fmt.Sprintf("c%d-a%d", c, a)
				size := int64(64 + rng.Intn(256))
				if err := cl.Create(name, size, size); err != nil {
					errs <- err
					return
				}
				payload := make([]byte, size)
				rng.Read(payload)
				if err := cl.WriteBlock(name, 0, payload); err != nil {
					errs <- err
					return
				}
				got, err := cl.ReadAll(name)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, payload) {
					errs <- fmt.Errorf("%s: payload mismatch", name)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestRemoteErrorsPropagate(t *testing.T) {
	_, cl := startServer(t, "")
	if _, err := cl.ReadBlock("ghost", 0); err == nil {
		t.Error("read of unknown array succeeded")
	}
	if _, err := cl.Info("ghost"); err == nil {
		t.Error("info of unknown array succeeded")
	}
	if err := cl.Create("", 1, 1); err == nil {
		t.Error("invalid create succeeded")
	}
	// Flush without scratch errors.
	if err := cl.Create("f", 8, 8); err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteBlock("f", 0, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush("f"); err == nil {
		t.Error("flush without scratch succeeded")
	}
}

func TestRemoteClientCloseFailsInflight(t *testing.T) {
	_, cl := startServer(t, "")
	if err := cl.Create("never", 8, 8); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := cl.ReadBlock("never", 0) // blocks: never written
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cl.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("in-flight read succeeded after close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight read not failed by close")
	}
}

func TestRemoteOutOfCoreSpMVEndToEnd(t *testing.T) {
	// Full compute-node/I/O-node round trip: blocks staged on the server's
	// scratch, fetched over TCP by a "compute process" that runs iterated
	// SpMV locally and checks against the in-core reference.
	const dim, k, iters = 60, 3, 3
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	cfg := core.SpMVConfig{Dim: dim, K: k, Iters: 1, Nodes: 1}
	if err := core.StageMatrix(root, m, cfg); err != nil {
		t.Fatal(err)
	}
	_, cl := startServer(t, filepath.Join(root, "node0"))

	p, err := sparse.NewGridPartition(dim, k)
	if err != nil {
		t.Fatal(err)
	}
	// Fetch each block once, cache decoded client-side (the compute node's
	// local memory), iterate.
	blocks := make([][]*sparse.CSR, k)
	for u := 0; u < k; u++ {
		blocks[u] = make([]*sparse.CSR, k)
		for v := 0; v < k; v++ {
			raw, err := cl.ReadAll(fmt.Sprintf("A_%03d_%03d", u, v))
			if err != nil {
				t.Fatal(err)
			}
			b, err := sparse.ReadCRS(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			blocks[u][v] = b
		}
	}
	rng := rand.New(rand.NewSource(10))
	x := make([]float64, dim)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	ref := append([]float64(nil), x...)
	tmp := make([]float64, dim)
	for it := 0; it < iters; it++ {
		next := make([]float64, dim)
		for u := 0; u < k; u++ {
			yu := next[p.Start(u):p.Start(u+1)]
			for v := 0; v < k; v++ {
				sparse.MulVecAdd(blocks[u][v], x[p.Start(v):p.Start(v+1)], yu)
			}
		}
		x = next
		sparse.MulVec(m, ref, tmp)
		ref, tmp = tmp, ref
	}
	for i := range ref {
		if x[i] != ref[i] {
			t.Fatalf("network-staged SpMV differs at %d", i)
		}
	}
}

// BenchmarkRemoteRead measures interval-read throughput over loopback TCP.
func BenchmarkRemoteRead(b *testing.B) {
	st, err := storage.NewLocal(storage.Config{MemoryBudget: 1 << 26, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	srv, err := Listen(st, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	const size = 1 << 20
	if err := cl.Create("big", size, size); err != nil {
		b.Fatal(err)
	}
	if err := cl.WriteBlock("big", 0, make([]byte, size)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.ReadBlock("big", 0); err != nil {
			b.Fatal(err)
		}
	}
}
