package remote

import (
	"errors"
	"fmt"

	"dooc/internal/compress"
	"dooc/internal/core"
	"dooc/internal/jobs"
	"dooc/internal/jobstore"
	"dooc/internal/proxy"
	"dooc/internal/storage"
)

// errorTable is the wire's error vocabulary: every exported sentinel a verb
// handler can return. A refused response carries, beside its message, the
// index of the first entry its error wraps (Code; 0 for none), and the
// client's error wraps that entry, so errors.Is identifies a failure on the
// client as it does on the server. The indices are the wire format, as the
// opcodes are: an entry is appended, never renumbered, and a retired
// sentinel's row stays.
var errorTable = [...]error{
	1:  storage.ErrUnknownArray,
	2:  storage.ErrArrayExists,
	3:  storage.ErrImmutable,
	4:  storage.ErrClosed,
	5:  storage.ErrScratchQuota,
	6:  compress.ErrCorrupt,
	7:  jobs.ErrQueueFull,
	8:  jobs.ErrQuotaExceeded,
	9:  jobs.ErrDraining,
	10: jobs.ErrUnknownJob,
	11: jobs.ErrCancelled,
	12: jobs.ErrNoProxy,
	13: proxy.ErrUnknownProxy,
	14: proxy.ErrProxyGone,
	15: proxy.ErrProxyQuota,
	16: proxy.ErrNoRefs,
	17: proxy.ErrClosed,
	18: jobstore.ErrClosed,
	19: jobstore.ErrPoisoned,
	20: ErrPeerClosed,
	21: core.ErrProgramTooLarge,
}

// errCode is the wire code of err: the index of the first table entry it
// wraps, 0 when it wraps none.
func errCode(err error) uint8 {
	for code, sentinel := range errorTable {
		if sentinel != nil && errors.Is(err, sentinel) {
			return uint8(code)
		}
	}
	return 0
}

// codeError is the sentinel a received code names, nil for 0 and for a code
// outside the table: the code is input from another process, and one this
// build does not know leaves the error untyped.
func codeError(code uint8) error {
	if int(code) < len(errorTable) {
		return errorTable[code]
	}
	return nil
}

// refused is the one way a server answers a request with an error: the
// message, and the code that keeps the error's identity across the wire.
func refused(err error) *response {
	return &response{Err: err.Error(), Code: errCode(err)}
}

// serverError is an error the server returned for a dispatched request; it
// is terminal (the connection is fine), but a replayed mutation may map it
// back to success — see resolveReplay.
type serverError struct {
	op  opcode
	msg string
	// typed is the table's sentinel for the response's code (nil when
	// untyped), so errors.Is finds it.
	typed error
}

func (e *serverError) Error() string { return fmt.Sprintf("remote %s: %s", e.op, e.msg) }
func (e *serverError) Unwrap() error { return e.typed }

// AnsweredInBand reports whether err is the server's answer to a request:
// the peer is alive and refused it, as opposed to a connection that failed
// or a reply the client itself rejected.
func AnsweredInBand(err error) bool {
	var se *serverError
	return errors.As(err, &se)
}
