package remote

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dooc/internal/compress"
	"dooc/internal/storage"
)

// refusingPeer is a PeerHandler whose PeerDelete of an array fails with the
// error errs holds for it.
type refusingPeer struct {
	recordingPeer
	errs map[string]error
}

func (p *refusingPeer) PeerDelete(array string) error { return p.errs[array] }

// TestErrorTableOverWire raises every entry of the error table, wrapped
// with context, in a verb handler on a real server connection: on the
// client the error is that entry and no other, answered in band, and keeps
// the server's message. An error the table does not know arrives untyped.
func TestErrorTableOverWire(t *testing.T) {
	raised := map[string]error{"untyped": errors.New("peer: no sentinel here")}
	for code, sentinel := range errorTable {
		if sentinel != nil {
			array := fmt.Sprintf("code%d", code)
			raised[array] = fmt.Errorf("peer-del %q: %w", array, sentinel)
		}
	}
	_, cl := startPeerServer(t, &refusingPeer{errs: raised})
	for array, want := range raised {
		err := cl.PeerDelete(array)
		if err == nil || !AnsweredInBand(err) || !strings.Contains(err.Error(), want.Error()) {
			t.Errorf("%s: %v, want the server's refusal %q", array, err, want)
			continue
		}
		for code, sentinel := range errorTable {
			if sentinel != nil && errors.Is(err, sentinel) != errors.Is(want, sentinel) {
				t.Errorf("%s: errors.Is(%v, code %d) = %v on the client, %v on the server",
					array, err, code, !errors.Is(want, sentinel), errors.Is(want, sentinel))
			}
		}
	}
}

// TestUnknownErrorCodeIsUntyped: a code outside the table — from a peer
// whose table is longer, or from corrupt input — reads as an untyped server
// error that keeps its message.
func TestUnknownErrorCodeIsUntyped(t *testing.T) {
	cl := &Client{metrics: newClientMetrics(nil)}
	for _, code := range []uint8{uint8(len(errorTable)), 255} {
		_, err := cl.acceptResponse(&request{Op: opRead}, &response{Err: "refused by a newer peer", Code: code})
		if !AnsweredInBand(err) || !strings.Contains(err.Error(), "refused by a newer peer") || errors.Unwrap(err) != nil {
			t.Errorf("code %d: %v, want an untyped server error", code, err)
		}
	}
}

// TestRemoteCorruptBlockKeepsIdentity: a remote read of a scratch block that
// was cut short on disk is compress.ErrCorrupt on the client, and its
// message still names the array, the block and the file.
func TestRemoteCorruptBlockKeepsIdentity(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.NewLocal(storage.Config{MemoryBudget: 1 << 20, ScratchDir: dir, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("truncate-the-flat-file.."), 64)
	if err := st.WriteArray("T", payload, int64(len(payload))); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush("T"); err != nil {
		t.Fatal(err)
	}
	st.Close()
	path := filepath.Join(dir, "T.arr")
	if err := os.Truncate(path, int64(len(payload)/3)); err != nil {
		t.Fatal(err)
	}
	_, cl := startServer(t, dir)
	_, err = cl.ReadBlock("T", 0)
	if !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("read of a truncated block: %v, want compress.ErrCorrupt", err)
	}
	for _, want := range []string{`"T"`, "block 0", path} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestRemoteClosedStoreKeepsIdentity: a server whose store has closed
// refuses every storage verb with storage.ErrClosed, on the client too.
func TestRemoteClosedStoreKeepsIdentity(t *testing.T) {
	st, err := storage.NewLocal(storage.Config{MemoryBudget: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Listen(st, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st.Close()
	if err := cl.Create("late", 8, 8); !errors.Is(err, storage.ErrClosed) {
		t.Errorf("create on a closed store: %v, want storage.ErrClosed", err)
	}
	if _, err := cl.Info("late"); !errors.Is(err, storage.ErrClosed) {
		t.Errorf("info on a closed store: %v, want storage.ErrClosed", err)
	}
}
