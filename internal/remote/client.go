package remote

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"dooc/internal/compress"
	"dooc/internal/faults"
	"dooc/internal/obs"
	"dooc/internal/storage"
)

// Options tunes a Client's recovery behavior.
type Options struct {
	// Timeout bounds each request round trip. Zero disables deadlines —
	// the default, because a read of a not-yet-written block legally
	// blocks server-side for as long as the producer takes.
	Timeout time.Duration
	// MaxRetries is how many reconnect-and-replay attempts follow a lost
	// connection or expired deadline (default 3; negative disables retries).
	MaxRetries int
	// ReconnectBackoff is the delay before the first reconnect attempt; it
	// doubles per attempt (default 20ms).
	ReconnectBackoff time.Duration
	// Faults, when non-nil, injects connection drops and payload corruption
	// into this client's outgoing frames.
	Faults *faults.Injector
	// Obs, when non-nil, receives the client's RPC metrics
	// (dooc_remote_client_*).
	Obs *obs.Registry
	// Codec, when non-nil, is the client's preferred wire codec: payloads
	// are compressed both ways when the server's hello mask admits it
	// (NegotiatedCodec reports what was agreed).
	Codec compress.Codec
	// CompressMin is the smallest payload worth compressing (default 1 KiB).
	CompressMin int
	// Handshake is inert: every connection opens with the capability hello,
	// so the server's mask (ClusterCapable) is always known.
	// The field stays declared only because bench/ sets it.
	Handshake bool
}

func (o Options) withDefaults() Options {
	if o.MaxRetries == 0 {
		o.MaxRetries = 3
	} else if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.ReconnectBackoff <= 0 {
		o.ReconnectBackoff = 20 * time.Millisecond
	}
	return o
}

// errDeadline reports an expired per-request deadline.
var errDeadline = errors.New("remote: request deadline exceeded")

type callResult struct {
	resp *response
	err  error
}

// pendingCall ties an in-flight request to the connection generation that
// carries it, so a dead connection fails exactly its own calls.
type pendingCall struct {
	ch  chan callResult
	gen int
}

// Client is a compute node's handle on a remote storage server. It is safe
// for concurrent use; requests are multiplexed over one TCP connection and
// matched to responses by ID, so a read blocked on an unwritten block
// does not stall other requests. When the connection is lost the client
// reconnects with backoff and replays in-flight calls: reads are idempotent,
// and mutations are resolved against the server's immutable-array state
// (a write that already landed verifies by read-back instead of failing).
type Client struct {
	addr string
	opts Options

	// reconnMu single-flights reconnection attempts.
	reconnMu sync.Mutex

	mu         sync.Mutex
	c          *conn // nil between a lost connection and its replacement
	gen        int
	nextID     uint64
	pending    map[uint64]*pendingCall
	closed     bool
	reconnects int64
	negotiated compress.Codec // wire codec agreed at handshake; nil = uncompressed
	peerMask   uint8          // server capability mask from the handshake

	metrics clientMetrics

	wg sync.WaitGroup
}

// Dial connects to a storage server with default options.
func Dial(addr string) (*Client, error) { return DialOptions(addr, Options{}) }

// DialOptions connects to a storage server.
func DialOptions(addr string, opts Options) (*Client, error) {
	cl := &Client{
		addr:    addr,
		opts:    opts.withDefaults(),
		pending: make(map[uint64]*pendingCall),
		metrics: newClientMetrics(opts.Obs),
	}
	c, err := cl.dialConn()
	if err != nil {
		return nil, err
	}
	cl.c = c
	cl.wg.Add(1)
	go cl.readLoop(cl.c, cl.gen)
	return cl, nil
}

// dialConn dials the server and runs the capability handshake. A peer that
// does not answer the hello with its own is not a server this client can
// talk to: the dial fails.
func (cl *Client) dialConn() (*conn, error) {
	raw, err := net.Dial("tcp", cl.addr)
	if err != nil {
		return nil, err
	}
	codec := cl.opts.Codec
	if codec != nil && codec.ID() == (compress.Raw{}).ID() {
		codec = nil
	}
	negotiated, peerMask, err := clientHandshake(raw, codec)
	if err != nil {
		raw.Close()
		return nil, fmt.Errorf("remote: handshake with %s: %w", cl.addr, err)
	}
	c := newFaultyConn(raw, cl.opts.Faults)
	c.codec = negotiated
	c.compressMin = compressMinOrDefault(cl.opts.CompressMin)
	c.wire = cl.metrics.wire
	cl.mu.Lock()
	cl.negotiated = negotiated
	cl.peerMask = peerMask
	cl.mu.Unlock()
	return c, nil
}

// advertises reports whether the server's hello at the last (re)connect
// admitted a role's verbs.
func (cl *Client) advertises(r role) bool {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return r.advertisedIn(cl.peerMask)
}

// NegotiatedCodec returns the wire codec agreed with the server at the last
// (re)connect, or nil when payloads travel uncompressed.
func (cl *Client) NegotiatedCodec() compress.Codec {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.negotiated
}

// Close tears the connection down; in-flight calls fail terminally.
func (cl *Client) Close() {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return
	}
	cl.closed = true
	c := cl.c
	cl.mu.Unlock()
	if c != nil {
		c.close()
	}
	cl.wg.Wait()
}

// Reconnects returns how many times the client re-established its
// connection after an unexpected loss.
func (cl *Client) Reconnects() int64 {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.reconnects
}

func (cl *Client) readLoop(c *conn, gen int) {
	defer cl.wg.Done()
	for {
		resp := new(response)
		if err := c.readResponse(resp); err != nil {
			cl.failGeneration(gen)
			return
		}
		// The reply is handed over under cl.mu, so a caller that finds its
		// call no longer pending knows the reply is already in its channel.
		cl.mu.Lock()
		pc, ok := cl.pending[resp.ID]
		if ok && pc.gen == gen {
			delete(cl.pending, resp.ID)
			pc.ch <- callResult{resp: resp}
		} else {
			ok = false
		}
		cl.mu.Unlock()
		if !ok {
			storage.SharedArena().Put(resp.data)
		}
	}
}

// failGeneration fails every pending call carried by generation gen: with
// errClosed after a deliberate Close (terminal), with errConnLost otherwise
// (eligible for replay).
func (cl *Client) failGeneration(gen int) {
	cl.mu.Lock()
	if cl.gen == gen && cl.c != nil {
		cl.c.close()
		cl.c = nil
	}
	err := errConnLost
	if cl.closed {
		err = errClosed
	}
	for id, pc := range cl.pending {
		if pc.gen != gen {
			continue
		}
		delete(cl.pending, id)
		pc.ch <- callResult{err: err}
	}
	cl.mu.Unlock()
}

// reconnect re-establishes the connection if it is currently down.
func (cl *Client) reconnect() error {
	cl.reconnMu.Lock()
	defer cl.reconnMu.Unlock()
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return errClosed
	}
	if cl.c != nil { // another caller already reconnected
		cl.mu.Unlock()
		return nil
	}
	cl.mu.Unlock()
	c, err := cl.dialConn()
	if err != nil {
		return fmt.Errorf("%w: reconnect to %s: %v", errConnLost, cl.addr, err)
	}
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		c.close()
		return errClosed
	}
	cl.gen++
	cl.c = c
	cl.reconnects++
	cl.metrics.reconnects.Inc()
	gen := cl.gen
	cl.wg.Add(1)
	cl.mu.Unlock()
	go cl.readLoop(c, gen)
	return nil
}

// roundTrip performs one attempt of a request over the current connection,
// applying the deadline. It never retries.
func (cl *Client) roundTrip(req *request, timeout time.Duration) (*response, error) {
	started := time.Now()
	defer func() { cl.metrics.rpcSeconds.Observe(time.Since(started).Seconds()) }()
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil, errClosed
	}
	c := cl.c
	if c == nil {
		cl.mu.Unlock()
		return nil, errConnLost
	}
	if v := req.Op.row(); v != nil && !v.role.advertisedIn(cl.peerMask) {
		// The server's hello did not advertise this verb's role: refuse it
		// here rather than send an opcode the server would refuse.
		cl.mu.Unlock()
		return nil, refusal(req, v.role)
	}
	gen := cl.gen
	cl.nextID++
	id := cl.nextID
	req.ID = id
	pc := &pendingCall{ch: make(chan callResult, 1), gen: gen}
	cl.pending[id] = pc
	cl.mu.Unlock()

	n, err := c.sendRequest(req)
	cl.metrics.bytesOut.Add(int64(n))
	if err != nil {
		cl.mu.Lock()
		delete(cl.pending, id)
		if cl.gen == gen && cl.c == c {
			cl.c.close()
			cl.c = nil
		}
		cl.mu.Unlock()
		return nil, fmt.Errorf("%w: send %s: %v", errConnLost, req.Op, err)
	}

	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case res := <-pc.ch:
		if res.err != nil {
			return nil, res.err
		}
		return cl.acceptResponse(req, res.resp)
	case <-timer:
		cl.mu.Lock()
		_, waiting := cl.pending[id]
		delete(cl.pending, id)
		cl.mu.Unlock()
		if !waiting {
			// The reply raced the deadline and is already in the channel:
			// its payload still goes back to the arena.
			if res := <-pc.ch; res.resp != nil {
				storage.SharedArena().Put(res.resp.data)
			}
		}
		return nil, fmt.Errorf("%w: %s %q after %v", errDeadline, req.Op, req.Array, timeout)
	}
}

// acceptResponse checks a reply and undoes its wire compression. On success
// resp.data is the caller's arena buffer (nil when the reply carries no
// payload); on failure the payload has been given back.
func (cl *Client) acceptResponse(req *request, resp *response) (*response, error) {
	arena := storage.SharedArena()
	if resp.Err != "" {
		arena.Put(resp.data)
		return nil, &serverError{op: req.Op, msg: resp.Err, typed: codeError(resp.Code)}
	}
	if err := verifyPayload(req, "response payload", resp.data, resp.Sum); err != nil {
		arena.Put(resp.data)
		cl.metrics.checksumFails.Inc()
		return nil, err
	}
	cl.metrics.bytesIn.Add(int64(len(resp.data)))
	if resp.Enc {
		data, err := decodePayload(resp.data, cl.metrics.wire)
		arena.Put(resp.data)
		if err != nil {
			cl.metrics.checksumFails.Inc()
			return nil, fmt.Errorf("remote: %s %q: decoding wire frame: %w", req.Op, req.Array, err)
		}
		resp.data, resp.Enc = data, false
	}
	return resp, nil
}

// heapPayload moves a reply's arena payload into caller-owned heap memory
// (one allocation) and gives the arena buffer back.
func heapPayload(resp *response) []byte {
	if resp.data == nil {
		return nil
	}
	out := append([]byte(nil), resp.data...)
	storage.SharedArena().Put(resp.data)
	return out
}

// retryable reports whether a failed attempt is worth a reconnect-and-replay.
// Server-side errors and checksum mismatches are terminal; only transport
// losses and deadlines are transient.
func retryable(err error) bool {
	return errors.Is(err, errConnLost) || errors.Is(err, errDeadline)
}

// call performs a request with the full recovery policy: per-attempt
// deadline, reconnect with exponential backoff, and idempotent replay.
func (cl *Client) call(req *request) (*response, error) {
	backoff := cl.opts.ReconnectBackoff
	var lastErr error
	for attempt := 0; attempt <= cl.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
			if err := cl.reconnect(); err != nil {
				if errors.Is(err, errClosed) {
					return nil, err
				}
				lastErr = err
				continue
			}
		}
		resp, err := cl.roundTrip(req, cl.opts.Timeout)
		if err == nil {
			return resp, nil
		}
		if attempt > 0 {
			// A replayed mutation may fail precisely because the original
			// attempt landed before the connection died; resolve against the
			// server's state before trusting the error.
			resolved, inconclusive := cl.resolveReplay(req, err)
			if resolved {
				return &response{}, nil
			}
			if inconclusive && attempt < cl.opts.MaxRetries {
				// The verification itself hit a transport fault; replay the
				// whole mutation — it will re-verify if it collides again.
				lastErr = err
				continue
			}
		}
		if !retryable(err) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("remote: %s %q failed after %d retries: %w", req.Op, req.Array, cl.opts.MaxRetries, lastErr)
}

// resolveReplay decides whether a replayed mutation's failure actually means
// the original attempt succeeded. Arrays are immutable, so the checks are
// exact: a write that landed is byte-identical on read-back, a create that
// landed left matching metadata, a delete that landed left nothing.
// inconclusive means the verification itself hit a transport fault (or
// found the block unwritten) and the caller should replay the mutation.
func (cl *Client) resolveReplay(req *request, err error) (resolved, inconclusive bool) {
	switch req.Op {
	case opWrite:
		if !errors.Is(err, storage.ErrImmutable) {
			return false, false
		}
		// Bound the read-back: if the block is not written the verification
		// read would park server-side forever.
		verifyTimeout := cl.opts.Timeout
		if verifyTimeout <= 0 {
			verifyTimeout = 500 * time.Millisecond
		}
		resp, rerr := cl.roundTrip(&request{Op: opRead, Array: req.Array, Block: req.Block}, verifyTimeout)
		if rerr != nil {
			return false, retryable(rerr)
		}
		// Equal bytes: the original write landed. Else the data genuinely
		// conflicts.
		landed := bytes.Equal(resp.data, req.data)
		storage.SharedArena().Put(resp.data)
		return landed, false
	case opCreate:
		if !errors.Is(err, storage.ErrArrayExists) {
			return false, false
		}
		resp, rerr := cl.roundTrip(&request{Op: opInfo, Array: req.Array}, cl.opts.Timeout)
		if rerr != nil {
			return false, retryable(rerr)
		}
		if resp.Info.Size == req.Size && resp.Info.BlockSize == req.BlockSize {
			return true, false
		}
		return false, false
	case opDelete:
		return errors.Is(err, storage.ErrUnknownArray), false
	}
	return false, false
}

// Create declares an immutable array on the server.
func (cl *Client) Create(name string, size, blockSize int64) error {
	_, err := cl.call(&request{Op: opCreate, Array: name, Size: size, BlockSize: blockSize})
	return err
}

// Delete removes an array.
func (cl *Client) Delete(name string) error {
	_, err := cl.call(&request{Op: opDelete, Array: name})
	return err
}

// ReadBlock fetches block `block` of an array, blocking (server-side) until
// the block has been written. The returned bytes are the caller's.
func (cl *Client) ReadBlock(array string, block int) ([]byte, error) {
	resp, err := cl.call(&request{Op: opRead, Array: array, Block: block})
	if err != nil {
		return nil, err
	}
	return heapPayload(resp), nil
}

// WriteBlock publishes block `block` of an array; data must be exactly the
// block's length. The block must not have been written before (immutability
// is enforced by the server's store).
func (cl *Client) WriteBlock(array string, block int, data []byte) error {
	_, err := cl.call(&request{Op: opWrite, Array: array, Block: block, data: data})
	return err
}

// PrefetchBlock warms the server-side cache with one block.
func (cl *Client) PrefetchBlock(array string, block int) error {
	_, err := cl.call(&request{Op: opPrefetch, Array: array, Block: block})
	return err
}

// Flush persists the array on the server's scratch directory.
func (cl *Client) Flush(array string) error {
	_, err := cl.call(&request{Op: opFlush, Array: array})
	return err
}

// Evict drops a resident block server-side.
func (cl *Client) Evict(array string, block int) error {
	_, err := cl.call(&request{Op: opEvict, Array: array, Block: block})
	return err
}

// Info returns an array's metadata.
func (cl *Client) Info(array string) (storage.ArrayInfo, error) {
	resp, err := cl.call(&request{Op: opInfo, Array: array})
	if err != nil {
		return storage.ArrayInfo{}, err
	}
	return resp.Info, nil
}

// Stats returns the server store's counters.
func (cl *Client) Stats() (storage.Stats, error) {
	resp, err := cl.call(&request{Op: opStats})
	if err != nil {
		return storage.Stats{}, err
	}
	return deref(resp.Stats), nil
}

// ReadAll fetches an entire array block by block. The returned bytes are
// the caller's.
func (cl *Client) ReadAll(array string) ([]byte, error) {
	info, err := cl.Info(array)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, info.Size)
	for b := 0; b < info.NumBlocks(); b++ {
		resp, err := cl.call(&request{Op: opRead, Array: array, Block: b})
		if err != nil {
			return nil, err
		}
		out = append(out, resp.data...)
		storage.SharedArena().Put(resp.data)
	}
	return out, nil
}
