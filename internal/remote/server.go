package remote

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"dooc/internal/compress"
	"dooc/internal/faults"
	"dooc/internal/jobs"
	"dooc/internal/obs"
	"dooc/internal/storage"
)

// ServerOptions tunes a Server.
type ServerOptions struct {
	// Faults, when non-nil, injects connection drops and payload corruption
	// into the server's outgoing frames.
	Faults *faults.Injector
	// Obs, when non-nil, receives the server's RPC metrics
	// (dooc_remote_server_*).
	Obs *obs.Registry
	// Codec, when non-nil, compresses response payloads to clients whose
	// hello mask admits it. When nil, responses use the client's preferred
	// codec instead.
	Codec compress.Codec
	// CompressMin is the smallest payload worth compressing (default 1 KiB).
	CompressMin int
	// Jobs, when non-nil, enables the job-service verbs (submit, status,
	// cancel, result, list) against this solver service. When nil those
	// verbs fail cleanly; plain storage servers are unaffected.
	Jobs *jobs.SolverService
	// Peer, when non-nil, enables the cluster peer verbs (peer-put,
	// peer-get, peer-del, peer-view) and advertises ClusterCapBit in the
	// handshake hello, admitting this server to ring membership.
	Peer PeerHandler
}

// Server exposes one storage filter over TCP. It is the I/O-node role:
// typically constructed over a store whose scratch directory holds staged
// sub-matrix files, then serving compute-node clients.
type Server struct {
	store *storage.Store
	ln    net.Listener
	opts  ServerOptions

	mu     sync.Mutex
	conns  map[*conn]struct{}
	closed bool
	wg     sync.WaitGroup

	metrics serverMetrics
}

// Serve starts serving store on the listener. It returns immediately;
// Close shuts the server down.
func Serve(store *storage.Store, ln net.Listener) *Server {
	return ServeOptions(store, ln, ServerOptions{})
}

// ServeOptions starts serving store on the listener with explicit options.
func ServeOptions(store *storage.Store, ln net.Listener, opts ServerOptions) *Server {
	s := &Server{store: store, ln: ln, opts: opts, conns: make(map[*conn]struct{}), metrics: newServerMetrics(opts.Obs)}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Listen is a convenience: listen on addr ("127.0.0.1:0" for tests) and
// serve store.
func Listen(store *storage.Store, addr string) (*Server, error) {
	return ListenOptions(store, addr, ServerOptions{})
}

// ListenOptions listens on addr and serves store with explicit options.
func ListenOptions(store *storage.Store, addr string, opts ServerOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return ServeOptions(store, ln, opts), nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Requests returns the number of requests served.
func (s *Server) Requests() int64 { return s.metrics.requests.Value() }

// BytesOut returns payload bytes sent to clients.
func (s *Server) BytesOut() int64 { return s.metrics.bytesOut.Value() }

// BytesIn returns payload bytes received from clients.
func (s *Server) BytesIn() int64 { return s.metrics.bytesIn.Value() }

// Close stops accepting, closes all connections, and waits for handlers.
func (s *Server) Close() { s.Shutdown(0) }

// Shutdown drains the server gracefully: it stops accepting, waits up to
// timeout for in-flight requests to finish, then closes the connections.
// Requests parked on unwritten intervals cannot finish on their own, so the
// drain is bounded; whatever is still active when the timeout expires is cut
// off exactly as Close would.
func (s *Server) Shutdown(timeout time.Duration) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.ln.Close()
	s.mu.Unlock()

	deadline := time.Now().Add(timeout)
	for s.metrics.active.Value() > 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}

	s.mu.Lock()
	for c := range s.conns {
		c.close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		raw, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c := newFaultyConn(raw, s.opts.Faults)
		c.compressMin = compressMinOrDefault(s.opts.CompressMin)
		c.wire = s.metrics.wire
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handleConn(c)
	}
}

// negotiate consumes the capability hello every connection opens with,
// replies with the server's own, and enables compressed responses the
// client's mask admits. Anything else at the head of a connection — input
// from outside the program, or a hello of another protocol version — is an
// error, and the caller drops the connection before a single byte of it
// reaches the gob decoder.
func (s *Server) negotiate(c *conn) error {
	buf := make([]byte, helloLen)
	if _, err := io.ReadFull(c.br, buf); err != nil {
		return err
	}
	mask, pref, err := parseHello(buf)
	if err != nil {
		return err
	}
	replyMask := compress.Mask() &^ (ClusterCapBit | ProxyCapBit)
	for r, ri := range roles {
		if s.plays(role(r)) {
			replyMask |= ri.bit
		}
	}
	if _, err := c.raw.Write(helloFrame(replyMask, pref)); err != nil {
		return err
	}
	enc := s.opts.Codec
	if enc == nil {
		if cdc, ok := compress.ByID(pref); ok {
			enc = cdc
		}
	}
	if enc != nil && enc.ID() != (compress.Raw{}).ID() && mask&(1<<enc.ID()) != 0 {
		c.codec = enc
	}
	return nil
}

func (s *Server) handleConn(c *conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.close()
	}()
	if err := s.negotiate(c); err != nil {
		return
	}
	// Handlers may block (reads wait for writers), so each request runs in
	// its own goroutine; the per-connection write lock serializes replies.
	// Handlers are deliberately NOT waited for on teardown: a read parked on
	// a never-written interval unblocks only when the interval is written or
	// the underlying store closes (ErrClosed), at which point the handler's
	// reply to the dead connection is a no-op. Waiting here would deadlock
	// Server.Close against the storage layer's read-blocks-until-written
	// semantics.
	for {
		req := new(request)
		if err := c.readRequest(req); err != nil {
			return
		}
		s.metrics.requests.Inc()
		s.metrics.bytesIn.Add(int64(len(req.data)))
		s.metrics.active.Add(1)
		go func() {
			defer s.metrics.active.Add(-1)
			resp := s.serve(req)
			resp.ID = req.ID
			// A failed send means the connection died; the read loop will
			// notice and tear down.
			_ = c.sendResponse(resp, s.metrics.bytesOut)
			if resp.release != nil {
				resp.release()
			}
		}()
	}
}

// serve checks, decodes and dispatches one received request. The server
// owns the request's payload and gives it back to the arena once dispatch
// has returned: handlers copy what they keep.
func (s *Server) serve(req *request) *response {
	arena := storage.SharedArena()
	defer func() { arena.Put(req.data) }()
	if err := verifyPayload(req, "payload", req.data, req.Sum); err != nil {
		// A corrupted payload must never reach the store: reject it with
		// the attributed checksum error instead of dispatching.
		s.metrics.checksumFails.Inc()
		return &response{Err: err.Error()}
	}
	if req.Enc {
		// The checksum held over the wire bytes; now undo the wire
		// compression. A frame that fails its own CRC must never reach the
		// store either.
		data, err := decodePayload(req.data, s.metrics.wire)
		if err != nil {
			s.metrics.checksumFails.Inc()
			return &response{Err: fmt.Sprintf("remote: %s %q [%d,%d): decoding wire frame: %v", req.Op, req.Array, req.Lo, req.Hi, err)}
		}
		arena.Put(req.data)
		req.data, req.Enc = data, false
	}
	return s.dispatch(req)
}
