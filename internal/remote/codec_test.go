package remote

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dooc/internal/compress"
	"dooc/internal/core"
	"dooc/internal/obs"
	"dooc/internal/sparse"
	"dooc/internal/spmv"
	"dooc/internal/storage"
)

// wirePayload builds n bytes of quantized float64 data — the shape of a
// solver vector, and compressible by the default codec.
func wirePayload(n int) []byte {
	out := make([]byte, n)
	for i := 0; i+8 <= n; i += 8 {
		v := math.Round((1+1e-3*math.Sin(float64(i)/300))*4096) / 4096
		binary.LittleEndian.PutUint64(out[i:], math.Float64bits(v))
	}
	return out
}

// startCodecServer wires a codec-configured server and client over a local
// store, with a shared registry when reg is non-nil.
func startCodecServer(t *testing.T, reg *obs.Registry, srvOpts ServerOptions, clOpts Options) (*Server, *Client) {
	t.Helper()
	st, err := storage.NewLocal(storage.Config{MemoryBudget: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srvOpts.Obs = reg
	clOpts.Obs = reg
	srv, err := ListenOptions(st, "127.0.0.1:0", srvOpts)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := DialOptions(srv.Addr(), clOpts)
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

// TestWireCompressionRoundTrip moves a compressible payload both ways under
// each pairing of client and server codec preference: the data must round-
// trip exactly, and a direction carries fewer payload bytes than the logical
// interval exactly when its sender has a codec the receiver's hello admits —
// a client that asked for no codec still decodes what a codec-configured
// server sends it.
func TestWireCompressionRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name                string
		client, server      compress.Codec
		negotiated          bool
		requestsCompressed  bool
		responsesCompressed bool
	}{
		{name: "client codec", client: compress.Default(), negotiated: true, requestsCompressed: true, responsesCompressed: true},
		{name: "server codec only", server: compress.Default(), responsesCompressed: true},
		{name: "no codec"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, cl := startCodecServer(t, nil, ServerOptions{Codec: tc.server}, Options{Codec: tc.client})
			if got := cl.NegotiatedCodec(); (got != nil) != tc.negotiated || (got != nil && got.ID() != tc.client.ID()) {
				t.Fatalf("NegotiatedCodec() = %v, want negotiated=%v", got, tc.negotiated)
			}

			payload := wirePayload(64 << 10)
			if err := cl.Create("v", int64(len(payload)), int64(len(payload))); err != nil {
				t.Fatal(err)
			}
			if err := cl.WriteBlock("v", 0, payload); err != nil {
				t.Fatal(err)
			}
			got, err := cl.ReadBlock("v", 0)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatal("wire round trip corrupted the payload")
			}
			if in := srv.BytesIn(); (in < int64(len(payload))) != tc.requestsCompressed {
				t.Errorf("server received %d wire bytes for a %d-byte write, want compressed=%v", in, len(payload), tc.requestsCompressed)
			}
			if out := srv.BytesOut(); (out < int64(len(payload))) != tc.responsesCompressed {
				t.Errorf("server sent %d wire bytes for a %d-byte read, want compressed=%v", out, len(payload), tc.responsesCompressed)
			}
		})
	}
}

// TestWireCompressionBailsOutOnRandomPayload sends incompressible data: the
// adaptive encoder must fall back to the plain payload (no frame overhead on
// the wire) and the bytes must still round-trip exactly.
func TestWireCompressionBailsOutOnRandomPayload(t *testing.T) {
	reg := obs.NewRegistry()
	srv, cl := startCodecServer(t, reg, ServerOptions{}, Options{Codec: compress.Default()})

	payload := make([]byte, 32<<10)
	rand.New(rand.NewSource(41)).Read(payload)
	if err := cl.Create("r", int64(len(payload)), int64(len(payload))); err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteBlock("r", 0, payload); err != nil {
		t.Fatal(err)
	}
	got, err := cl.ReadBlock("r", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("bail-out round trip corrupted the payload")
	}
	// The payload went plain: exactly the logical bytes on the wire, and the
	// bail-out counted on both encoding ends.
	if in := srv.BytesIn(); in != int64(len(payload)) {
		t.Errorf("server received %d wire bytes, want the plain payload %d", in, len(payload))
	}
	if reg.Sum("dooc_remote_client_compress_bailouts_total") == 0 {
		t.Error("client never counted the bail-out")
	}
	if reg.Sum("dooc_remote_server_compress_bailouts_total") == 0 {
		t.Error("server never counted the bail-out")
	}
}

// TestServerDropsPeerWithoutHello writes raw bytes to a live server: a peer
// that opens with anything but a well-formed hello is outside input, and the
// server must close the connection without replying, counting a request or
// letting a byte of it reach the store.
func TestServerDropsPeerWithoutHello(t *testing.T) {
	var gobFirst bytes.Buffer
	if err := gob.NewEncoder(&gobFirst).Encode(&request{ID: 1, Op: opCreate, Array: "smuggled", Size: 8, BlockSize: 8}); err != nil {
		t.Fatal(err)
	}
	hello := helloFrame(compress.Mask(), 0)
	versionZero := append([]byte(nil), hello...)
	versionZero[5] = 0
	// A version-1 peer carries payloads inside gob; its frames would be
	// misread as headers, so it is refused at the hello.
	versionOne := append([]byte(nil), hello...)
	versionOne[5] = 1
	// A version-2 peer sends refusals without their error code.
	versionTwo := append([]byte(nil), hello...)
	versionTwo[5] = 2
	// A version-3 peer reads hello bit 6 as the proxy registry's.
	versionThree := append([]byte(nil), hello...)
	versionThree[5] = 3
	// A version-4 peer names a byte range where this version reads a block
	// index: its write of [8,16) would land on block 0.
	versionFour := append([]byte(nil), hello...)
	versionFour[5] = 4

	for _, tc := range []struct {
		name string
		raw  []byte
	}{
		{"gob-first client", gobFirst.Bytes()},
		{"truncated hello", hello[:helloLen-3]},
		{"hello with version 0", append(versionZero, gobFirst.Bytes()...)},
		{"hello with version 1", append(versionOne, gobFirst.Bytes()...)},
		{"hello with version 2", append(versionTwo, gobFirst.Bytes()...)},
		{"hello with version 3", append(versionThree, gobFirst.Bytes()...)},
		{"hello with version 4", append(versionFour, frameStream(t, nil, &request{ID: 2, Op: opWrite, Array: "smuggled", Lo: 8, Hi: 16, data: make([]byte, 8)})...)},
		{"hello marker then gob", append([]byte{helloByte}, gobFirst.Bytes()...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := storage.NewLocal(storage.Config{MemoryBudget: 1 << 20, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			srv, err := Listen(st, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			raw, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			if _, err := raw.Write(tc.raw); err != nil {
				t.Fatal(err)
			}
			// End of input: a server still waiting for the rest of a hello
			// sees it now.
			if err := raw.(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatal(err)
			}
			raw.SetReadDeadline(time.Now().Add(5 * time.Second))
			reply, err := io.ReadAll(raw)
			if err != nil {
				t.Fatalf("server did not close the connection: %v", err)
			}
			if len(reply) != 0 {
				t.Errorf("server answered a malformed opening with % x", reply)
			}
			if n := srv.Requests(); n != 0 {
				t.Errorf("server counted %d requests from a peer it never shook hands with", n)
			}
			if _, err := st.Info("smuggled"); err == nil {
				t.Error("a request from a peer without a hello reached the store")
			}
		})
	}
}

// TestWireCompressionMetricsReconcile checks the compressed wire is still
// accounted symmetrically — what one end's encoder puts on the wire the
// other end's decoder takes off — and that the per-codec invariant
// stored <= raw holds on every encoding path.
func TestWireCompressionMetricsReconcile(t *testing.T) {
	reg := obs.NewRegistry()
	_, cl := startCodecServer(t, reg, ServerOptions{}, Options{Codec: compress.Default()})

	payload := wirePayload(64 << 10)
	if err := cl.Create("m", int64(len(payload)), int64(len(payload))); err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteBlock("m", 0, payload); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := cl.ReadBlock("m", 0); err != nil {
			t.Fatal(err)
		}
	}

	// Wire symmetry survives compression: both ends count wire bytes.
	if in, out := reg.Sum("dooc_remote_server_bytes_in_total"), reg.Sum("dooc_remote_client_bytes_out_total"); in != out {
		t.Errorf("server bytes in %d != client bytes out %d", in, out)
	}
	if out, in := reg.Sum("dooc_remote_server_bytes_out_total"), reg.Sum("dooc_remote_client_bytes_in_total"); out != in {
		t.Errorf("server bytes out %d != client bytes in %d", out, in)
	}
	// Encoder/decoder symmetry: client-encoded frames are server-decoded and
	// vice versa, codec for codec.
	for _, name := range compress.Names() {
		cw := reg.SumWhere("dooc_remote_client_compress_stored_bytes_total", "codec", name)
		sr := reg.SumWhere("dooc_remote_server_decompress_stored_bytes_total", "codec", name)
		if cw != sr {
			t.Errorf("codec %s: client wrote %d frame bytes, server decoded %d", name, cw, sr)
		}
		sw := reg.SumWhere("dooc_remote_server_compress_stored_bytes_total", "codec", name)
		cr := reg.SumWhere("dooc_remote_client_decompress_stored_bytes_total", "codec", name)
		if sw != cr {
			t.Errorf("codec %s: server wrote %d frame bytes, client decoded %d", name, sw, cr)
		}
		for _, prefix := range []string{"dooc_remote_client", "dooc_remote_server"} {
			raw := reg.SumWhere(prefix+"_compress_raw_bytes_total", "codec", name)
			stored := reg.SumWhere(prefix+"_compress_stored_bytes_total", "codec", name)
			if name != "raw" && stored > raw {
				t.Errorf("%s codec %s stored %d > raw %d", prefix, name, stored, raw)
			}
		}
	}
	// Both directions actually compressed something.
	if reg.Sum("dooc_remote_client_compress_stored_bytes_total") == 0 {
		t.Error("client never compressed a request payload")
	}
	if reg.Sum("dooc_remote_server_compress_stored_bytes_total") == 0 {
		t.Error("server never compressed a response payload")
	}
	// The ratio gauges report a win (>100%).
	if r := reg.Sum("dooc_remote_client_compress_ratio_percent"); r <= 100 {
		t.Errorf("client wire ratio gauge = %d%%, want > 100", r)
	}
	if r := reg.Sum("dooc_remote_server_compress_ratio_percent"); r <= 100 {
		t.Errorf("server wire ratio gauge = %d%%, want > 100", r)
	}
}

// TestDefaultCodecCutsCombinedTraffic holds the default codec to the goal
// the compression subsystem is built for, on a 4000² gap matrix (d = 6,
// seed 17) whose values are quantized to 1/1024 steps: the bytes it stages,
// spills from a checkpointed 3-iteration run, and sends over the wire for
// every block must together be at least 1.5× fewer than the uncompressed
// baseline's — DOOCCRS1 files, raw spills and a client that negotiated no
// codec.
func TestDefaultCodecCutsCombinedTraffic(t *testing.T) {
	const dim, k, nodes = 4000, 4, 2
	m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: dim, Cols: dim, D: 6, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range m.Val {
		m.Val[i] = math.Round(v*1024) / 1024
	}
	cfg := core.SpMVConfig{Dim: dim, K: k, Iters: 3, Nodes: nodes, Tag: "codec"}

	rawRoot, encRoot := t.TempDir(), t.TempDir()
	stageCRS1(t, rawRoot, m, cfg)
	if err := core.StageMatrix(encRoot, m, cfg); err != nil {
		t.Fatal(err)
	}
	staged := func(root string) int64 {
		info, err := core.DiscoverStagedMatrix(root)
		if err != nil {
			t.Fatal(err)
		}
		return info.Bytes
	}

	// Checkpointed runs flush every iterate, so the vectors really travel
	// through the spill path; a quantized x0 keeps their mantissas short.
	rng := rand.New(rand.NewSource(4))
	x0 := make([]float64, dim)
	for i := range x0 {
		x0[i] = math.Round(rng.NormFloat64()*256) / 256
	}
	run := func(root string, codec compress.Codec) *core.SpMVResult {
		sys, err := core.NewSystem(core.Options{
			Nodes:          nodes,
			WorkersPerNode: 2,
			MemoryBudget:   1 << 22, // force spills and re-reads
			ScratchRoot:    root,
			PrefetchWindow: 2,
			Reorder:        true,
			Codec:          codec,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Close()
		res, _, err := core.ResumeIteratedSpMV(sys, cfg, x0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rawRes, encRes := run(rawRoot, nil), run(encRoot, compress.Default())
	for i := range rawRes.X {
		if math.Float64bits(rawRes.X[i]) != math.Float64bits(encRes.X[i]) {
			t.Fatalf("compressed run diverged from the raw run at entry %d", i)
		}
	}

	// One node's staging puts every block in one served directory. Its files
	// are DOOCCRS1, so only the wire codec can shrink what is sent.
	wireRoot := t.TempDir()
	wireCfg := cfg
	wireCfg.Nodes = 1
	stageCRS1(t, wireRoot, m, wireCfg)
	wire := func(codec compress.Codec) int64 {
		st, err := storage.NewLocal(storage.Config{MemoryBudget: 1 << 28, ScratchDir: filepath.Join(wireRoot, "node0"), IOWorkers: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		srv, err := ListenOptions(st, "127.0.0.1:0", ServerOptions{Obs: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		cl, err := DialOptions(srv.Addr(), Options{Codec: codec})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		for u := 0; u < k; u++ {
			for v := 0; v < k; v++ {
				if _, err := cl.ReadAll(spmv.MatrixArray(u, v)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return srv.BytesOut()
	}

	before := staged(rawRoot) + rawRes.Stats.BytesWrittenDisk() + wire(nil)
	after := staged(encRoot) + encRes.Stats.CompressStoredBytes() + wire(compress.Default())
	ratio := float64(before) / float64(after)
	t.Logf("staged + spilled + wire bytes: %.2f MB -> %.2f MB (%.2fx)", float64(before)/1e6, float64(after)/1e6, ratio)
	if ratio < 1.5 {
		t.Fatalf("the default codec cuts combined traffic %.2fx, want at least 1.5x", ratio)
	}
}

// stageCRS1 lays m's blocks out where core.StageMatrix puts them, each an
// uncompressed DOOCCRS1 file.
func stageCRS1(t *testing.T, root string, m *sparse.CSR, cfg core.SpMVConfig) {
	t.Helper()
	p, err := cfg.Partition()
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < cfg.K; u++ {
		dir := filepath.Join(root, fmt.Sprintf("node%d", cfg.OwnerOf(u)))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < cfg.K; v++ {
			b, err := sparse.Block(m, p, u, v)
			if err != nil {
				t.Fatal(err)
			}
			if err := sparse.WriteCRSFile(filepath.Join(dir, spmv.MatrixArray(u, v)+".arr"), b); err != nil {
				t.Fatal(err)
			}
		}
	}
}
