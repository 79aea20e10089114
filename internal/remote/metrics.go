package remote

import (
	"sync"
	"sync/atomic"

	"dooc/internal/compress"
	"dooc/internal/obs"
)

// serverMetrics are one server's series in the shared obs registry; the
// Server's Requests/BytesIn/BytesOut accessors and its Shutdown drain read
// the same instruments.
type serverMetrics struct {
	requests      *obs.Counter
	bytesIn       *obs.Counter
	bytesOut      *obs.Counter
	checksumFails *obs.Counter
	active        *obs.Gauge
	wire          *wireCompressMetrics
}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	return serverMetrics{
		requests:      reg.Counter("dooc_remote_server_requests_total", "RPC requests received"),
		bytesIn:       reg.Counter("dooc_remote_server_bytes_in_total", "payload bytes received from clients"),
		bytesOut:      reg.Counter("dooc_remote_server_bytes_out_total", "payload bytes sent to clients"),
		checksumFails: reg.Counter("dooc_remote_server_checksum_failures_total", "request payloads rejected by CRC32 verification"),
		active:        reg.Gauge("dooc_remote_server_active_requests", "requests currently being handled"),
		wire:          newWireCompressMetrics(reg, "dooc_remote_server"),
	}
}

// clientMetrics are one client's series in the shared obs registry.
type clientMetrics struct {
	reconnects    *obs.Counter
	checksumFails *obs.Counter
	bytesIn       *obs.Counter
	bytesOut      *obs.Counter
	rpcSeconds    *obs.Histogram
	wire          *wireCompressMetrics
}

func newClientMetrics(reg *obs.Registry) clientMetrics {
	return clientMetrics{
		reconnects:    reg.Counter("dooc_remote_client_reconnects_total", "connections re-established after unexpected loss"),
		checksumFails: reg.Counter("dooc_remote_client_checksum_failures_total", "response payloads rejected by CRC32 verification"),
		bytesIn:       reg.Counter("dooc_remote_client_bytes_in_total", "payload bytes received from the server"),
		bytesOut:      reg.Counter("dooc_remote_client_bytes_out_total", "payload bytes sent to the server"),
		rpcSeconds:    reg.Histogram("dooc_remote_client_rpc_seconds", "RPC round-trip latency per attempt", nil),
		wire:          newWireCompressMetrics(reg, "dooc_remote_client"),
	}
}

// wireCompressMetrics are one endpoint's wire-compression series, shared by
// the client and server sides under their respective prefixes. Per-codec
// byte counters are resolved lazily — which codecs appear depends on the
// adaptive encoder at runtime — and sends happen from many goroutines, so
// the map is mutex-guarded (the counters themselves are atomics).
type wireCompressMetrics struct {
	reg    *obs.Registry
	prefix string

	bailouts   *obs.Counter
	ratio      *obs.Gauge
	encSeconds *obs.Histogram
	decSeconds *obs.Histogram

	rawBytes    atomic.Int64
	storedBytes atomic.Int64

	mu       sync.Mutex
	perCodec map[uint8]*wireCodecCounters
}

// wireCodecCounters are one codec's byte series on one endpoint.
type wireCodecCounters struct {
	encRawBytes    *obs.Counter
	encStoredBytes *obs.Counter
	decStoredBytes *obs.Counter
	decRawBytes    *obs.Counter
}

func newWireCompressMetrics(reg *obs.Registry, prefix string) *wireCompressMetrics {
	return &wireCompressMetrics{
		reg:        reg,
		prefix:     prefix,
		bailouts:   reg.Counter(prefix+"_compress_bailouts_total", "payloads sent plain by the adaptive bail-out"),
		ratio:      reg.Gauge(prefix+"_compress_ratio_percent", "cumulative wire ratio of compressed payloads, 100*raw/stored"),
		encSeconds: reg.Histogram(prefix+"_compress_encode_seconds", "payload encode latency before send", nil),
		decSeconds: reg.Histogram(prefix+"_compress_decode_seconds", "payload decode latency on receipt", nil),
		perCodec:   make(map[uint8]*wireCodecCounters),
	}
}

func (w *wireCompressMetrics) codec(id uint8) *wireCodecCounters {
	w.mu.Lock()
	defer w.mu.Unlock()
	if cc, ok := w.perCodec[id]; ok {
		return cc
	}
	name := "unknown"
	if c, ok := compress.ByID(id); ok {
		name = c.Name()
	}
	l := obs.L("codec", name)
	cc := &wireCodecCounters{
		encRawBytes:    w.reg.Counter(w.prefix+"_compress_raw_bytes_total", "payload bytes fed to the wire encoder", l),
		encStoredBytes: w.reg.Counter(w.prefix+"_compress_stored_bytes_total", "frame bytes put on the wire", l),
		decStoredBytes: w.reg.Counter(w.prefix+"_decompress_stored_bytes_total", "frame bytes received from the wire", l),
		decRawBytes:    w.reg.Counter(w.prefix+"_decompress_raw_bytes_total", "payload bytes produced by the wire decoder", l),
	}
	w.perCodec[id] = cc
	return cc
}

// noteEncode records one kept (non-bail-out) wire frame.
func (w *wireCompressMetrics) noteEncode(id uint8, rawLen, wireLen int, secs float64) {
	w.encSeconds.Observe(secs)
	cc := w.codec(id)
	cc.encRawBytes.Add(int64(rawLen))
	cc.encStoredBytes.Add(int64(wireLen))
	raw := w.rawBytes.Add(int64(rawLen))
	stored := w.storedBytes.Add(int64(wireLen))
	if stored > 0 {
		w.ratio.Set(100 * raw / stored)
	}
}

// noteBailout records a payload the adaptive encoder refused to compress.
func (w *wireCompressMetrics) noteBailout(secs float64) {
	w.encSeconds.Observe(secs)
	w.bailouts.Inc()
}

// noteDecode records one wire frame decoded on receipt.
func (w *wireCompressMetrics) noteDecode(id uint8, wireLen, rawLen int, secs float64) {
	w.decSeconds.Observe(secs)
	cc := w.codec(id)
	cc.decStoredBytes.Add(int64(wireLen))
	cc.decRawBytes.Add(int64(rawLen))
}
