// Proxy-object verbs: the remote protocol's fourth personality. A server
// whose job service carries a proxy registry advertises ProxyCapBit in its
// handshake hello, and clients then pass job results around BY REFERENCE: a
// stat/addref/release manage a handle's refcounted lifetime, a resolve
// streams its payload in codec-framed chunks, and a job-proxy fetches a
// finished job's handle instead of its bytes. Chunk payloads ride the
// normal payload path — raw bytes after the frame's gob header — so they
// get wire compression and checksum protection for free; the whole
// reassembled payload is additionally verified against the handle's
// registered SHA-256, end to end.
//
// Capability gating mirrors the cluster tier: the proxy verbs (job-proxy
// among them) are the opcode table's roleProxy rows, a server running
// without a registry never advertises the bit, and the client refuses every
// proxy verb to it with the typed ErrLegacyProxy instead of sending it.

package remote

import (
	"crypto/sha256"
	"fmt"

	"dooc/internal/jobs"
	"dooc/internal/proxy"
	"dooc/internal/storage"
)

// ProxyCapBit is the handshake hello mask bit advertising the proxy-object
// verbs. The low bits of the mask byte carry codec capabilities
// (compress.Mask, IDs 0..3); bit 7 is ClusterCapBit, bit 6 is this.
const ProxyCapBit uint8 = 1 << 6

// ErrLegacyProxy reports a proxy verb aimed at a server that did not
// advertise ProxyCapBit: one running without a proxy registry.
var ErrLegacyProxy = fmt.Errorf("remote: server does not speak the proxy-object verbs")

// resolveChunk is the payload size of one proxy-resolve round-trip. Result
// vectors are a few MiB at most; 256 KiB chunks keep any single frame
// bounded while giving the wire codec enough bytes to bite on.
const resolveChunk = 256 << 10

// ProxyCapable reports whether the server at the other end advertised the
// proxy-object verbs in the last (re)connect's handshake. False for a
// server running without a proxy registry.
func (cl *Client) ProxyCapable() bool { return cl.advertises(roleProxy) }

// ProxyStat fetches a handle's metadata and live reference count without
// touching its payload.
func (cl *Client) ProxyStat(ref proxy.Ref) (proxy.Handle, int, error) {
	resp, err := cl.call(&request{Op: opProxyStat, Array: ref.String()})
	if err != nil {
		return proxy.Handle{}, 0, err
	}
	return deref(resp.Proxy), resp.Refs, nil
}

// ProxyAddRef takes a reference on a handle. owner "" takes an anonymous
// client reference; a named owner is idempotent (re-adding is a no-op).
func (cl *Client) ProxyAddRef(ref proxy.Ref, owner string) (proxy.Handle, int, error) {
	resp, err := cl.call(&request{Op: opProxyAddRef, Array: ref.String(), Job: &jobWire{Key: owner}})
	if err != nil {
		return proxy.Handle{}, 0, err
	}
	return deref(resp.Proxy), resp.Refs, nil
}

// ProxyRelease drops a reference and returns the remaining live count (0
// means the handle is gone and its arrays reclaimed). An anonymous release
// with no anonymous references outstanding drops the origin lease instead —
// the explicit "free this result" verb.
func (cl *Client) ProxyRelease(ref proxy.Ref, owner string) (int, error) {
	resp, err := cl.call(&request{Op: opProxyRelease, Array: ref.String(), Job: &jobWire{Key: owner}})
	if err != nil {
		return 0, err
	}
	return resp.Refs, nil
}

// ResolveProxy materializes a handle's full payload, streaming it in
// resolveChunk pieces and verifying the reassembled bytes against the
// handle's registered SHA-256. The server pins the handle per chunk; a
// handle whose last reference drops mid-stream fails the next chunk with
// proxy.ErrProxyGone — the client never returns partial bytes. The returned
// payload is the caller's.
func (cl *Client) ResolveProxy(ref proxy.Ref) ([]byte, proxy.Handle, error) {
	var out []byte
	var total int64 = -1
	for lo := int64(0); total < 0 || lo < total; {
		hi := lo + resolveChunk
		if total >= 0 && hi > total {
			hi = total
		}
		resp, err := cl.call(&request{Op: opProxyResolve, Array: ref.String(), Lo: lo, Hi: hi})
		if err != nil {
			return nil, proxy.Handle{}, err
		}
		if total < 0 {
			total = resp.Total
			out = make([]byte, 0, total)
		} else if resp.Total != total {
			return nil, proxy.Handle{}, fmt.Errorf("remote: resolve %s: payload length changed mid-stream (%d -> %d)", ref, total, resp.Total)
		}
		n := int64(len(resp.data))
		out = append(out, resp.data...)
		storage.SharedArena().Put(resp.data)
		lo += n
		if n == 0 && lo < total {
			return nil, proxy.Handle{}, fmt.Errorf("remote: resolve %s: empty chunk at offset %d of %d", ref, lo, total)
		}
	}
	h, _, err := cl.ProxyStat(ref)
	if err != nil {
		return nil, proxy.Handle{}, err
	}
	if int64(len(out)) != h.Length {
		return nil, proxy.Handle{}, fmt.Errorf("remote: resolve %s: %d bytes, handle registers %d", ref, len(out), h.Length)
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256(out)); sum != h.SHA256 {
		return nil, proxy.Handle{}, fmt.Errorf("remote: resolve %s: payload hash %s does not match registered %s", ref, sum, h.SHA256)
	}
	return out, h, nil
}

// JobProxy blocks until the job reaches a terminal state and returns its
// result HANDLE — the pass-by-reference counterpart of JobResult. The
// result payload stays on the server; chain it into another job's submit or
// ResolveProxy it on demand.
func (cl *Client) JobProxy(id int64) (proxy.Handle, jobs.JobStatus, error) {
	resp, err := cl.call(&request{Op: opJobProxy, Job: &jobWire{ID: id}})
	if err != nil {
		return proxy.Handle{}, jobs.JobStatus{}, err
	}
	return deref(resp.Proxy), deref(resp.Job), nil
}
