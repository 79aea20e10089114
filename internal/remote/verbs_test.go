package remote

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"dooc/internal/jobs"
	"dooc/internal/proxy"
	"dooc/internal/storage"
)

// TestOpcodeTablePinned pins every opcode's wire value, name and role: they
// are the protocol, so a row moved or renamed breaks every deployed peer.
func TestOpcodeTablePinned(t *testing.T) {
	want := []struct {
		op   opcode
		wire uint8
		name string
		role role
	}{
		{opCreate, 1, "create", roleStorage},
		{opDelete, 2, "delete", roleStorage},
		{opRead, 3, "read", roleStorage},
		{opWrite, 4, "write", roleStorage},
		{opPrefetch, 5, "prefetch", roleStorage},
		{opFlush, 6, "flush", roleStorage},
		{opInfo, 7, "info", roleStorage},
		{opEvict, 8, "evict", roleStorage},
		{opStats, 9, "stats", roleStorage},
		{opJobSubmit, 10, "job-submit", roleJobs},
		{opJobStatus, 11, "job-status", roleJobs},
		{opJobCancel, 12, "job-cancel", roleJobs},
		{opJobResult, 13, "job-result", roleJobs},
		{opJobList, 14, "job-list", roleJobs},
		{opJobHistory, 15, "job-history", roleJobs},
		{opPeerPut, 16, "peer-put", rolePeer},
		{opPeerGet, 17, "peer-get", rolePeer},
		{opPeerDel, 18, "peer-del", rolePeer},
		{opPeerView, 19, "peer-view", rolePeer},
		{opProxyStat, 20, "proxy-stat", roleProxy},
		{opProxyAddRef, 21, "proxy-addref", roleProxy},
		{opProxyRelease, 22, "proxy-release", roleProxy},
		{opProxyResolve, 23, "proxy-resolve", roleProxy},
		{opJobProxy, 24, "job-proxy", roleProxy},
	}
	if len(verbs) != len(want)+1 {
		t.Fatalf("the opcode table has %d rows, want %d (and row 0 empty)", len(verbs)-1, len(want))
	}
	for _, w := range want {
		if uint8(w.op) != w.wire || w.op.String() != w.name || w.op.row() == nil || w.op.row().role != w.role {
			t.Errorf("opcode %d (%s): want wire value %d, name %q, role %q", uint8(w.op), w.op, w.wire, w.name, roles[w.role].what)
		}
	}
	for _, op := range []opcode{0, opJobProxy + 1, 255} {
		if op.row() != nil || op.String() != fmt.Sprintf("opcode(%d)", uint8(op)) {
			t.Errorf("opcode %d is outside the table but reads as %q", uint8(op), op)
		}
	}
	if protoVersion != 2 || ClusterCapBit != 1<<7 || ProxyCapBit != 1<<6 {
		t.Errorf("protocol version %d, cluster bit %#x, proxy bit %#x: want 2, 0x80, 0x40", protoVersion, ClusterCapBit, ProxyCapBit)
	}
}

// TestPlainServerRefusesRoleVerbs walks every opcode on a server that plays
// no role but storage. A verb whose role has a hello bit is refused by the
// client before anything is sent; a job verb (no bit) reaches the server and
// is refused in band; every role-gated verb that does reach the server gets
// its "not enabled" error; an opcode outside the table gets "unknown opcode".
// The connection stays usable throughout.
func TestPlainServerRefusesRoleVerbs(t *testing.T) {
	srv, cl := startServer(t, "")
	for op := opcode(1); op <= opJobProxy; op++ {
		r := op.row().role
		if r == roleStorage {
			continue
		}
		notEnabled := roles[r].what + " not enabled on this server"
		if resp := srv.serve(&request{Op: op}); !strings.Contains(resp.Err, notEnabled) {
			t.Errorf("%s served in band: %q, want %q", op, resp.Err, notEnabled)
		}
		before := srv.Requests()
		_, err := cl.call(&request{Op: op})
		sent := srv.Requests() - before
		switch r {
		case roleJobs:
			if err == nil || !strings.Contains(err.Error(), notEnabled) || sent != 1 {
				t.Errorf("%s: %v after %d requests, want the server's in-band refusal", op, err, sent)
			}
		case rolePeer:
			if err == nil || !strings.Contains(err.Error(), "peer role not enabled") || sent != 0 {
				t.Errorf("%s: %v after %d requests, want a refusal before sending", op, err, sent)
			}
		case roleProxy:
			if !errors.Is(err, ErrLegacyProxy) || sent != 0 {
				t.Errorf("%s: %v after %d requests, want ErrLegacyProxy before sending", op, err, sent)
			}
		}
	}
	for _, op := range []opcode{0, opJobProxy + 1, 255} {
		if _, err := cl.call(&request{Op: op}); err == nil || !strings.Contains(err.Error(), "unknown opcode") {
			t.Errorf("opcode %d: %v, want unknown opcode", uint8(op), err)
		}
	}
	if _, err := cl.Stats(); err != nil {
		t.Fatalf("storage verb after the refusals: %v", err)
	}
}

// The header shapes as they were when the struct-valued fields were values.
// gob encodes *T as T, so a header of either shape must decode into the
// other unchanged: the field change is not a protocol change.
type (
	valueRequest struct {
		ID              uint64
		Op              opcode
		Array           string
		Lo, Hi          int64
		Size, BlockSize int64
		Block           int
		Len             int
		Enc             bool
		Sum             uint32
		Job             jobWire
		Epoch           uint64
		Durable         bool
		View            PeerView
	}
	valueResponse struct {
		ID       uint64
		Err      string
		Len      int
		Enc      bool
		Info     storage.ArrayInfo
		Stats    storage.Stats
		Sum      uint32
		Job      jobs.JobStatus
		JobList  []jobs.JobStatus
		JobTotal int
		Held     bool
		Epoch    uint64
		View     PeerView
		Proxy    proxy.Handle
		Refs     int
		Total    int64
	}
)

// regob encodes src and decodes the message into dst.
func regob(t *testing.T, src, dst any) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(src); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(&buf).Decode(dst); err != nil {
		t.Fatal(err)
	}
}

// TestHeaderFormatMatchesValueFields: headers encoded with the value shapes
// decode unchanged into request and response, and the reverse.
func TestHeaderFormatMatchesValueFields(t *testing.T) {
	job := jobWire{ID: 7, Tenant: "alice", Iters: 3, Key: "k", Offset: 1, Limit: 2, InputProxy: "job1@1"}
	view := PeerView{From: "n0", Version: 4, Members: []PeerMember{{ID: "n0", Addr: "127.0.0.1:1"}}}
	status := jobs.JobStatus{ID: 7, Tenant: "alice", State: "done", Priority: 2, SubmittedAt: time.Unix(1, 0).UTC()}
	handle := proxy.Handle{Name: "job7", Epoch: 1, Length: 80, SHA256: "ab"}
	stats := storage.Stats{ReadRequests: 3, BytesReadDisk: 96, Evictions: 1}

	for _, req := range []request{
		{ID: 1, Op: opJobSubmit, Array: "a", Lo: 2, Hi: 3, Len: 4, Sum: 5, Job: &job},
		{ID: 2, Op: opPeerView, Epoch: 9, Durable: true, View: &view},
		{ID: 3, Op: opRead, Array: "a", Hi: 8},
	} {
		var old valueRequest
		regob(t, &req, &old)
		want := valueRequest{ID: req.ID, Op: req.Op, Array: req.Array, Lo: req.Lo, Hi: req.Hi, Len: req.Len, Sum: req.Sum,
			Job: deref(req.Job), Epoch: req.Epoch, Durable: req.Durable, View: deref(req.View)}
		if !reflect.DeepEqual(old, want) {
			t.Errorf("%s request decoded by the value shape as %+v, want %+v", req.Op, old, want)
		}
		var back request
		regob(t, &old, &back)
		if back.ID != req.ID || back.Op != req.Op || deref(back.Job) != deref(req.Job) || !reflect.DeepEqual(deref(back.View), deref(req.View)) {
			t.Errorf("%s request sent by the value shape decoded as %+v", req.Op, back)
		}
	}

	for _, resp := range []response{
		{ID: 1, Stats: &stats, Len: 8, Sum: 9},
		{ID: 2, Job: &status, JobList: []jobs.JobStatus{status}, JobTotal: 1, Proxy: &handle, Refs: 2, Total: 80},
		{ID: 3, Held: true, Epoch: 4, View: &view, Info: storage.ArrayInfo{Name: "a", Size: 8, BlockSize: 8}},
		{ID: 4, Err: "refused"},
	} {
		var old valueResponse
		regob(t, &resp, &old)
		want := valueResponse{ID: resp.ID, Err: resp.Err, Len: resp.Len, Info: resp.Info, Stats: deref(resp.Stats), Sum: resp.Sum,
			Job: deref(resp.Job), JobList: resp.JobList, JobTotal: resp.JobTotal, Held: resp.Held, Epoch: resp.Epoch,
			View: deref(resp.View), Proxy: deref(resp.Proxy), Refs: resp.Refs, Total: resp.Total}
		if !reflect.DeepEqual(old, want) {
			t.Errorf("response %d decoded by the value shape as %+v, want %+v", resp.ID, old, want)
		}
		var back response
		regob(t, &old, &back)
		got := valueResponse{ID: back.ID, Err: back.Err, Len: back.Len, Info: back.Info, Stats: deref(back.Stats), Sum: back.Sum,
			Job: deref(back.Job), JobList: back.JobList, JobTotal: back.JobTotal, Held: back.Held, Epoch: back.Epoch,
			View: deref(back.View), Proxy: deref(back.Proxy), Refs: back.Refs, Total: back.Total}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("response %d sent by the value shape decoded as %+v, want %+v", resp.ID, got, want)
		}
	}
}
