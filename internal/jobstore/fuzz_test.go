package jobstore

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"dooc/internal/obs"
)

// fuzzJournal writes a real journal — records through every state, a
// cancelled job's error, flight events, live and released proxy handles, a
// drain marker — compacting halfway, and returns its snapshot and WAL bytes.
func fuzzJournal(f *testing.F) (snapshot, wal []byte) {
	f.Helper()
	dir := f.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			f.Fatal(err)
		}
	}
	for id := int64(1); id <= 3; id++ {
		must(s.Append(rec(id, "queued")))
	}
	done := rec(1, "done")
	done.ResultSHA = "ab12"
	done.Events = []obs.FlightEvent{{Seq: 1, At: time.Unix(2000, 0).UTC(), Kind: "transition", Name: "done", Attrs: map[string]string{"iters": "3"}}}
	must(s.Append(done))
	must(s.AppendProxy(ProxyRecord{Name: "job1", Epoch: 1, SHA256: "ab12", Length: 24, Tenant: "t", JobID: 1, Owners: []string{"origin"}}))
	must(s.Compact())
	cancelled := rec(2, "cancelled")
	cancelled.Err = "jobs: job cancelled: core: run cancelled"
	must(s.Append(cancelled))
	must(s.Append(rec(3, "running")))
	must(s.AppendProxy(ProxyRecord{Name: "job1", Epoch: 1, Released: true}))
	must(s.MarkDrain())
	s.Abort()
	snapshot, err = os.ReadFile(filepath.Join(dir, snapshotName))
	must(err)
	wal, err = os.ReadFile(filepath.Join(dir, walName))
	must(err)
	return snapshot, wal
}

// FuzzReplayWAL replays arbitrary bytes as wal.log over a valid snapshot:
// as they are (framed false), or framed with a correct CRC after the real
// journal (framed true), so that the entry decoder and apply see them. Open
// must never panic, and when it succeeds a second Open of the directory —
// after the first has truncated any torn tail — must replay the same job
// and proxy records: replay is idempotent.
func FuzzReplayWAL(f *testing.F) {
	snapshot, wal := fuzzJournal(f)
	f.Add(wal, false)
	f.Add(wal[:len(wal)-5], false)
	f.Add([]byte{}, false)
	for r := bytes.NewReader(wal); ; {
		payload, err := readFrame(r, int64(r.Len()), maxWALFrameLen)
		if err == io.EOF {
			break
		}
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload, true)
	}
	f.Fuzz(func(t *testing.T, data []byte, framed bool) {
		if framed {
			var buf bytes.Buffer
			buf.Write(wal)
			if err := writeFrame(&buf, data, maxWALFrameLen); err != nil {
				t.Fatal(err)
			}
			data = buf.Bytes()
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapshotName), snapshot, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, walName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			return
		}
		recs, proxies := s.Records(), s.ProxyRecords()
		s.Abort()
		again, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("second open of a replayed journal: %v", err)
		}
		defer again.Abort()
		if got := again.Records(); !reflect.DeepEqual(got, recs) {
			t.Fatalf("second replay: %d records %+v, first: %d %+v", len(got), got, len(recs), recs)
		}
		if got := again.ProxyRecords(); !reflect.DeepEqual(got, proxies) {
			t.Fatalf("second replay: %d proxy records %+v, first: %d %+v", len(got), got, len(proxies), proxies)
		}
	})
}
