// Package remote exposes a DOoC storage node over TCP — the paper's
// compute-node / I/O-node separation with a real network in between
// ("Data is streamed from the I/O nodes to the requesting compute nodes
// using the 4X QDR InfiniBand interconnect"). A server wraps one storage
// filter (typically scanning an I/O node's scratch directory); clients on
// other processes read and write intervals of its immutable arrays.
//
// The wire protocol is deliberately interval-granular, mirroring the
// storage layer's lease API: a read round-trip blocks server-side until the
// interval has been written (the immutable-array discipline travels over
// the network unchanged), and a write publishes atomically on receipt.
// Payload frames carry a CRC32 checksum so wire corruption is detected at
// the protocol layer instead of surfacing as a wrong eigenvalue.
package remote

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"

	"dooc/internal/compress"
	"dooc/internal/faults"
	"dooc/internal/jobs"
	"dooc/internal/obs"
	"dooc/internal/proxy"
	"dooc/internal/storage"
)

// opcode identifies a request type.
type opcode uint8

const (
	opCreate opcode = iota + 1
	opDelete
	opRead
	opWrite
	opPrefetch
	opFlush
	opInfo
	opEvict
	opStats
	// Job-service verbs (server must be constructed with ServerOptions.Jobs).
	opJobSubmit
	opJobStatus
	opJobCancel
	opJobResult
	opJobList
	// opJobHistory pages through terminal jobs.
	opJobHistory
	// Cluster peer verbs (server must be constructed with
	// ServerOptions.Peer; gated by ClusterCapBit in the handshake mask).
	opPeerPut
	opPeerGet
	opPeerDel
	opPeerView
	// Proxy-object verbs (server's job service must have a proxy registry;
	// gated by ProxyCapBit in the handshake mask).
	opProxyStat
	opProxyAddRef
	opProxyRelease
	opProxyResolve
	// opJobProxy returns a finished job's result handle instead of its bytes.
	opJobProxy
)

func (o opcode) String() string {
	switch o {
	case opCreate:
		return "create"
	case opDelete:
		return "delete"
	case opRead:
		return "read"
	case opWrite:
		return "write"
	case opPrefetch:
		return "prefetch"
	case opFlush:
		return "flush"
	case opInfo:
		return "info"
	case opEvict:
		return "evict"
	case opStats:
		return "stats"
	case opJobSubmit:
		return "job-submit"
	case opJobStatus:
		return "job-status"
	case opJobCancel:
		return "job-cancel"
	case opJobResult:
		return "job-result"
	case opJobList:
		return "job-list"
	case opJobHistory:
		return "job-history"
	case opPeerPut:
		return "peer-put"
	case opPeerGet:
		return "peer-get"
	case opPeerDel:
		return "peer-del"
	case opPeerView:
		return "peer-view"
	case opProxyStat:
		return "proxy-stat"
	case opProxyAddRef:
		return "proxy-addref"
	case opProxyRelease:
		return "proxy-release"
	case opProxyResolve:
		return "proxy-resolve"
	case opJobProxy:
		return "job-proxy"
	default:
		return fmt.Sprintf("opcode(%d)", uint8(o))
	}
}

// request is one client->server message. Sum is the CRC32 (IEEE) of Data,
// set by the sender and verified by the receiver. When Enc is true, Data is
// an adaptive compress frame and Sum covers the wire (encoded) bytes.
type request struct {
	ID              uint64
	Op              opcode
	Array           string
	Lo, Hi          int64
	Size, BlockSize int64
	Block           int
	Data            []byte
	Enc             bool
	Sum             uint32
	// Job carries the job-verb parameters (gob omits the zero value for
	// storage verbs).
	Job jobWire
	// Cluster peer-verb parameters: the block epoch and durability pin for
	// peer-put, and the gossiped membership view for peer-view. Gob omits
	// the zero values on every other verb.
	Epoch   uint64
	Durable bool
	View    PeerView
}

// response is one server->client message. Sum covers Data (the wire form
// when Enc is true).
type response struct {
	ID    uint64
	Err   string
	Data  []byte
	Enc   bool
	Info  storage.ArrayInfo
	Stats storage.Stats
	Sum   uint32
	// Job and JobList carry job-verb results (status snapshots; job-list).
	Job     jobs.JobStatus
	JobList []jobs.JobStatus
	// JobTotal is the total terminal-job count behind a job-history page.
	JobTotal int
	// Cluster peer-verb results: Held reports a peer-get hit (and a
	// peer-put accepted), Epoch tags the returned block, View answers a
	// view exchange.
	Held  bool
	Epoch uint64
	View  PeerView
	// Proxy-verb results: the handle (stat/addref/job-proxy/resolve), the
	// live reference count (stat/addref/release), and the payload's total
	// length behind a chunked resolve. Gob omits the zero values elsewhere.
	Proxy proxy.Handle
	Refs  int
	Total int64
}

// Capability handshake. Every connection opens with the client's hello —
// marker byte, magic, protocol version, capability mask, preferred codec —
// and the server replies in kind before the first gob message; after that
// both sides may send compressed payloads the peer's mask admits. There is
// no plain-gob connection: a server drops a peer whose first bytes are not a
// well-formed hello, and a client fails the dial when the reply is not one.
const (
	helloByte    = 0x00
	helloLen     = 8
	protoVersion = 1

	// defaultCompressMin is the payload size below which compression is not
	// attempted: small frames are latency-bound and the 18-byte frame header
	// plus encode time buys nothing.
	defaultCompressMin = 1024

	// handshakeTimeout bounds the client's wait for the server's hello reply.
	handshakeTimeout = 2 * time.Second
)

var helloMagic = [4]byte{'D', 'Z', 'R', 'H'}

// compressMinOrDefault resolves a configured compression threshold.
func compressMinOrDefault(n int) int {
	if n <= 0 {
		return defaultCompressMin
	}
	return n
}

// helloFrame renders a capability hello: marker, magic, protocol version,
// codec capability mask (compress.Mask), preferred codec ID.
func helloFrame(mask, pref uint8) []byte {
	return []byte{helloByte, helloMagic[0], helloMagic[1], helloMagic[2], helloMagic[3], protoVersion, mask, pref}
}

// parseHello validates a received hello and extracts the peer's capability
// mask and preferred codec.
func parseHello(b []byte) (mask, pref uint8, err error) {
	if len(b) != helloLen || b[0] != helloByte ||
		b[1] != helloMagic[0] || b[2] != helloMagic[1] || b[3] != helloMagic[2] || b[4] != helloMagic[3] {
		return 0, 0, fmt.Errorf("remote: malformed handshake hello % x", b)
	}
	if b[5] < 1 {
		return 0, 0, fmt.Errorf("remote: handshake protocol version %d", b[5])
	}
	return b[6], b[7], nil
}

// clientHandshake sends a hello and waits (bounded) for the server's reply.
// It returns the negotiated encode codec (nil when no codec was requested
// or the server cannot decode it) and the server's raw capability mask —
// codec bits plus ClusterCapBit and ProxyCapBit. An error means the peer
// did not answer with a hello; the caller must discard the connection.
// codec may be nil: the hello is then a pure capability probe.
func clientHandshake(raw net.Conn, codec compress.Codec) (compress.Codec, uint8, error) {
	pref := (compress.Raw{}).ID()
	if codec != nil {
		pref = codec.ID()
	}
	raw.SetDeadline(time.Now().Add(handshakeTimeout))
	defer raw.SetDeadline(time.Time{})
	if _, err := raw.Write(helloFrame(compress.Mask()&^(ClusterCapBit|ProxyCapBit), pref)); err != nil {
		return nil, 0, err
	}
	reply := make([]byte, helloLen)
	if _, err := io.ReadFull(raw, reply); err != nil {
		return nil, 0, err
	}
	mask, _, err := parseHello(reply)
	if err != nil {
		return nil, 0, err
	}
	if codec == nil || mask&(1<<codec.ID()) == 0 {
		return nil, mask, nil
	}
	return codec, mask, nil
}

// payloadSum is the wire checksum of a payload (CRC32/IEEE; 0 for empty).
func payloadSum(data []byte) uint32 {
	if len(data) == 0 {
		return 0
	}
	return crc32.ChecksumIEEE(data)
}

// verifyRequest checks a received request's payload against its checksum.
func verifyRequest(r *request) error {
	if got := payloadSum(r.Data); got != r.Sum {
		return fmt.Errorf("remote: %s %q [%d,%d): payload checksum mismatch (crc %08x, frame says %08x): corrupted in flight",
			r.Op, r.Array, r.Lo, r.Hi, got, r.Sum)
	}
	return nil
}

// verifyResponse checks a received response's payload against its checksum.
// The request provides attribution.
func verifyResponse(req *request, r *response) error {
	if got := payloadSum(r.Data); got != r.Sum {
		return fmt.Errorf("remote: %s %q [%d,%d): response payload checksum mismatch (crc %08x, frame says %08x): corrupted in flight",
			req.Op, req.Array, req.Lo, req.Hi, got, r.Sum)
	}
	return nil
}

// conn wraps a TCP stream with gob codecs and a write lock (responses are
// sent from many goroutines — reads can block server-side for a long time
// and must not stall other requests). An optional fault injector can drop
// the connection or corrupt outgoing payloads after their checksum is
// computed, emulating a flaky wire.
type conn struct {
	raw    net.Conn
	br     *bufio.Reader
	dec    *gob.Decoder
	faults *faults.Injector

	// codec, when non-nil, compresses outgoing payloads of at least
	// compressMin bytes into adaptive frames (Enc=true). It is one the
	// peer's hello mask admits, so a frame is never sent to a peer that
	// cannot decode it.
	codec       compress.Codec
	compressMin int
	wire        *wireCompressMetrics

	mu  sync.Mutex
	enc *gob.Encoder
}

func newConn(raw net.Conn) *conn { return newFaultyConn(raw, nil) }

func newFaultyConn(raw net.Conn, inj *faults.Injector) *conn {
	br := bufio.NewReader(raw)
	return &conn{raw: raw, br: br, dec: gob.NewDecoder(br), enc: gob.NewEncoder(raw), faults: inj}
}

// framePool recycles wire-compression frame buffers across sends. gob's
// Encode copies the payload into its own stream buffer before returning, so
// a frame is dead the moment Encode returns and its backing can be reused
// by the next send on any connection.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// encodePayload compresses data for the wire if the connection negotiated a
// codec and the payload is worth it. The adaptive encoder's raw bail-out is
// mapped back to sending the plain payload: a raw frame would only add the
// header. When the returned bool is true, the frame's backing is pooled and
// the caller must release it with putFrame after the bytes have been copied
// to the wire.
func (c *conn) encodePayload(data []byte) ([]byte, bool, *[]byte) {
	if c.codec == nil || len(data) < c.compressMin {
		return data, false, nil
	}
	start := time.Now()
	buf := framePool.Get().(*[]byte)
	frame, used := compress.AppendFrameAdaptive((*buf)[:0], c.codec, data)
	*buf = frame[:0]
	secs := time.Since(start).Seconds()
	if used.ID() == (compress.Raw{}).ID() {
		framePool.Put(buf)
		c.wire.noteBailout(secs)
		return data, false, nil
	}
	c.wire.noteEncode(used.ID(), len(data), len(frame), secs)
	return frame, true, buf
}

// putFrame returns an encodePayload frame buffer to the pool (nil is a no-op).
func putFrame(buf *[]byte) {
	if buf != nil {
		framePool.Put(buf)
	}
}

// decodePayload undoes wire compression on a received payload.
func decodePayload(data []byte, w *wireCompressMetrics) ([]byte, error) {
	start := time.Now()
	raw, used, err := compress.DecodeFrame(data)
	if err != nil {
		return nil, err
	}
	w.noteDecode(used.ID(), len(data), len(raw), time.Since(start).Seconds())
	return raw, nil
}

// corruptCopy returns data, or a bit-flipped copy if the injector fires.
// The copy keeps the sender's buffer (and any lease it aliases) intact.
func (c *conn) corruptCopy(data []byte) []byte {
	if c.faults == nil || len(data) == 0 {
		return data
	}
	cp := append([]byte(nil), data...)
	if c.faults.Corrupt(cp) {
		return cp
	}
	return data
}

// sendRequest encodes and sends a request, returning the payload's wire
// length (the frame length when compressed).
func (c *conn) sendRequest(r *request) (int, error) {
	out := *r
	var fbuf *[]byte
	out.Data, out.Enc, fbuf = c.encodePayload(r.Data)
	out.Sum = payloadSum(out.Data)
	if c.faults.Drop() {
		putFrame(fbuf)
		c.raw.Close()
		return 0, fmt.Errorf("remote: send %s: %w: connection dropped", r.Op, faults.ErrInjected)
	}
	out.Data = c.corruptCopy(out.Data)
	n := len(out.Data)
	c.mu.Lock()
	err := c.enc.Encode(&out)
	c.mu.Unlock()
	putFrame(fbuf)
	return n, err
}

// sendResponse encodes and sends a response. The payload's wire length is
// added to sent before the frame goes onto the wire: the client may act on
// the response the moment it arrives, and whatever it then reads from the
// server's count must already include it.
func (c *conn) sendResponse(r *response, sent *obs.Counter) error {
	out := *r
	var fbuf *[]byte
	out.Data, out.Enc, fbuf = c.encodePayload(r.Data)
	out.Sum = payloadSum(out.Data)
	if c.faults.Drop() {
		putFrame(fbuf)
		c.raw.Close()
		return fmt.Errorf("remote: send response: %w: connection dropped", faults.ErrInjected)
	}
	out.Data = c.corruptCopy(out.Data)
	sent.Add(int64(len(out.Data)))
	c.mu.Lock()
	err := c.enc.Encode(&out)
	c.mu.Unlock()
	putFrame(fbuf)
	return err
}

func (c *conn) close() error { return c.raw.Close() }

// errClosed reports a deliberate local Close; it is terminal.
var errClosed = fmt.Errorf("remote: connection closed")

// errConnLost reports an unexpected connection teardown; calls failing with
// it are eligible for reconnect-and-replay.
var errConnLost = fmt.Errorf("remote: connection lost")
