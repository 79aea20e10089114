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
//
// After the capability hello, every message is one frame: a gob-encoded
// header (the request or response fields, the payload's length among them)
// followed by the payload's raw bytes. Block bytes never pass through gob:
// a sender writes header and payload in one vectored write, and a receiver
// decodes the header, then reads the payload straight into a buffer from
// storage.SharedArena(). The header's CRC32 of the payload detects wire
// corruption at the protocol layer instead of as a wrong eigenvalue.
package remote

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
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

// request is one client->server message. Its exported fields are the
// frame's gob header; data is the payload, which travels after it. Len is
// the payload's length on the wire and Sum its CRC32 (IEEE), both set by the
// sender; the receiver reads Len bytes and verifies Sum. When Enc is true,
// the payload is an adaptive compress frame and Len and Sum describe the
// wire (encoded) bytes.
type request struct {
	ID              uint64
	Op              opcode
	Array           string
	Lo, Hi          int64
	Size, BlockSize int64
	Block           int
	Len             int
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

	data []byte
}

// response is one server->client message: the exported fields are the
// frame's gob header, data the payload that follows it. Len and Sum describe
// the payload as it travels (the wire form when Enc is true).
type response struct {
	ID    uint64
	Err   string
	Len   int
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

	data []byte
	// release, when set, gives data back to its owner (a read lease, the
	// arena) once the frame has been written or has failed to be.
	release func()
}

// Capability handshake. Every connection opens with the client's hello —
// marker byte, magic, protocol version, capability mask, preferred codec —
// and the server replies in kind before the first frame; after that both
// sides may send compressed payloads the peer's mask admits. There is no
// plain-gob connection: a server drops a peer whose first bytes are not a
// well-formed hello of this protocol version, and a client fails the dial
// when the reply is not one. Version 2 is the header-then-payload frame;
// version 1 carried the payload inside the gob message, and the two cannot
// read each other's frames.
const (
	helloByte    = 0x00
	helloLen     = 8
	protoVersion = 2

	// maxFramePayload is the longest payload a frame header may declare:
	// 1 GiB, gob's own message ceiling on 64-bit platforms and so the
	// largest payload a version-1 frame could carry — moving payloads out
	// of gob refuses nothing it accepted. A receiver checks the declared
	// length before it allocates, so a corrupt or hostile header closes the
	// connection instead of reserving memory.
	maxFramePayload = 1 << 30

	// arenaPayloadMax is the arena's largest class (64 MiB). A payload up
	// to it is read into one arena buffer; a longer one (no program path
	// sends one) is read into heap memory grown as the bytes arrive, so a
	// declared length costs no more than the bytes actually received.
	arenaPayloadMax = 64 << 20

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
	if b[5] != protoVersion {
		return 0, 0, fmt.Errorf("remote: handshake protocol version %d, this build speaks %d", b[5], protoVersion)
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
	if got := payloadSum(r.data); got != r.Sum {
		return fmt.Errorf("remote: %s %q [%d,%d): payload checksum mismatch (crc %08x, frame says %08x): corrupted in flight",
			r.Op, r.Array, r.Lo, r.Hi, got, r.Sum)
	}
	return nil
}

// verifyResponse checks a received response's payload against its checksum.
// The request provides attribution.
func verifyResponse(req *request, r *response) error {
	if got := payloadSum(r.data); got != r.Sum {
		return fmt.Errorf("remote: %s %q [%d,%d): response payload checksum mismatch (crc %08x, frame says %08x): corrupted in flight",
			req.Op, req.Array, req.Lo, req.Hi, got, r.Sum)
	}
	return nil
}

// conn wraps a TCP stream with the frame codec and a write lock (responses
// are sent from many goroutines — reads can block server-side for a long
// time and must not stall other requests). An optional fault injector can
// drop the connection or corrupt outgoing payloads after their checksum is
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

	// mu serializes frames. Under it, enc renders a header into hdr and
	// bufs writes header and payload with one vectored write.
	mu   sync.Mutex
	enc  *gob.Encoder
	hdr  bytes.Buffer
	vec  [2][]byte
	bufs net.Buffers
}

func newConn(raw net.Conn) *conn { return newFaultyConn(raw, nil) }

func newFaultyConn(raw net.Conn, inj *faults.Injector) *conn {
	// gob reads exactly one message from an io.ByteReader, so the payload
	// that follows a header is still in br when Decode returns.
	br := bufio.NewReader(raw)
	c := &conn{raw: raw, br: br, dec: gob.NewDecoder(br), faults: inj}
	c.enc = gob.NewEncoder(&c.hdr)
	return c
}

// writeFrame sends one frame: hdr gob-encoded, then payload. A frame that
// could not be written whole leaves the stream unreadable for the peer (and
// the encoder's record of sent types wrong), so any failure closes the
// connection.
func (c *conn) writeFrame(hdr any, payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hdr.Reset()
	err := c.enc.Encode(hdr)
	if err == nil {
		c.vec = [2][]byte{c.hdr.Bytes(), payload}
		c.bufs = c.vec[:]
		_, err = c.bufs.WriteTo(c.raw)
		c.vec = [2][]byte{}
	}
	if err != nil {
		c.raw.Close()
	}
	return err
}

// readPayload reads the n payload bytes that follow a decoded header. A
// declared length outside [0, maxFramePayload] is refused before anything is
// allocated. The returned buffer is the caller's, from storage.SharedArena()
// up to arenaPayloadMax: whoever ends up holding it gives it back.
func (c *conn) readPayload(n int) ([]byte, error) {
	if n < 0 || n > maxFramePayload {
		return nil, fmt.Errorf("%w: %d bytes declared, limit %d", errPayloadLength, n, maxFramePayload)
	}
	if n == 0 {
		return nil, nil
	}
	if n > arenaPayloadMax {
		buf, err := io.ReadAll(io.LimitReader(c.br, int64(n)))
		if err == nil && len(buf) < n {
			err = io.ErrUnexpectedEOF
		}
		return buf, err
	}
	buf := storage.SharedArena().Get(n)
	if _, err := io.ReadFull(c.br, buf); err != nil {
		storage.SharedArena().Put(buf)
		return nil, err
	}
	return buf, nil
}

// readRequest reads one request frame. The payload is the caller's.
func (c *conn) readRequest(r *request) error {
	if err := c.dec.Decode(r); err != nil {
		return err
	}
	data, err := c.readPayload(r.Len)
	r.data = data
	return err
}

// readResponse reads one response frame. The payload is the caller's.
func (c *conn) readResponse(r *response) error {
	if err := c.dec.Decode(r); err != nil {
		return err
	}
	data, err := c.readPayload(r.Len)
	r.data = data
	return err
}

// framePool recycles wire-compression frame buffers across sends. A frame
// is dead once writeFrame returns, so its backing can be reused by the next
// send on any connection.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// encodePayload compresses data for the wire if the connection negotiated a
// codec and the payload is worth it. The adaptive encoder's raw bail-out is
// mapped back to sending the plain payload: a raw frame would only add the
// header. When the returned bool is true, the frame's backing is pooled and
// the caller must release it with putFrame after the frame is written.
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

// decodePayload undoes wire compression on a received payload into a fresh
// arena buffer, the caller's. The frame itself stays the caller's too.
func decodePayload(frame []byte, w *wireCompressMetrics) ([]byte, error) {
	start := time.Now()
	_, rawLen, err := compress.FrameRawLen(frame)
	if err != nil {
		return nil, err
	}
	raw := storage.SharedArena().Get(rawLen)
	used, err := compress.DecodeFrameInto(raw, frame, true)
	if err != nil {
		storage.SharedArena().Put(raw)
		return nil, err
	}
	w.noteDecode(used.ID(), len(frame), rawLen, time.Since(start).Seconds())
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

// preparePayload readies a payload for the wire: compressed if worth it,
// checksummed, and handed to the fault injector. It returns the bytes to
// send, whether they are a compress frame, their checksum, and the pooled
// frame buffer to release after the write (nil when none); dropped reports
// that the injector dropped the connection instead.
func (c *conn) preparePayload(data []byte) (wire []byte, enc bool, sum uint32, fbuf *[]byte, dropped bool) {
	wire, enc, fbuf = c.encodePayload(data)
	sum = payloadSum(wire)
	if c.faults.Drop() {
		putFrame(fbuf)
		c.raw.Close()
		return nil, false, 0, nil, true
	}
	return c.corruptCopy(wire), enc, sum, fbuf, false
}

// sendRequest sends a request frame, returning the payload's wire length
// (the frame length when compressed). It sets r's Len, Enc and Sum for the
// frame; r.data is left as it was, so a replay sends the same bytes.
func (c *conn) sendRequest(r *request) (int, error) {
	wire, enc, sum, fbuf, dropped := c.preparePayload(r.data)
	if dropped {
		return 0, fmt.Errorf("remote: send %s: %w: connection dropped", r.Op, faults.ErrInjected)
	}
	r.Len, r.Enc, r.Sum = len(wire), enc, sum
	err := c.writeFrame(r, wire)
	putFrame(fbuf)
	return len(wire), err
}

// sendResponse sends a response frame. The payload's wire length is added
// to sent before the frame goes onto the wire: the client may act on the
// response the moment it arrives, and whatever it then reads from the
// server's count must already include it.
func (c *conn) sendResponse(r *response, sent *obs.Counter) error {
	wire, enc, sum, fbuf, dropped := c.preparePayload(r.data)
	if dropped {
		return fmt.Errorf("remote: send response: %w: connection dropped", faults.ErrInjected)
	}
	r.Len, r.Enc, r.Sum = len(wire), enc, sum
	sent.Add(int64(len(wire)))
	err := c.writeFrame(r, wire)
	putFrame(fbuf)
	return err
}

func (c *conn) close() error { return c.raw.Close() }

// errPayloadLength reports a frame header declaring a payload length
// outside [0, maxFramePayload]; the connection is dropped.
var errPayloadLength = errors.New("remote: frame payload length out of range")

// errClosed reports a deliberate local Close; it is terminal.
var errClosed = fmt.Errorf("remote: connection closed")

// errConnLost reports an unexpected connection teardown; calls failing with
// it are eligible for reconnect-and-replay.
var errConnLost = fmt.Errorf("remote: connection lost")
