// Package netsrv is the network serving layer: a pipelined,
// length-prefixed binary protocol over TCP that puts concurrent remote
// clients in front of a store.Store — one resilience engine or N
// shards, unchanged. The wire layer is deliberately thin: the server's
// job is to accumulate in-flight requests into pcache.ReadOp/WriteOp
// batches so socket traffic rides the same bank-amortised batch path
// local callers use, and to keep per-connection memory bounded (a
// bounded response queue per connection is the backpressure mechanism:
// when a client stops draining responses, its requests stop being
// read, and TCP flow control pushes back to the sender).
//
// Wire format (all integers big-endian):
//
//	frame  := u32 length | u8 opcode | u64 request-id | payload
//	         (length counts opcode+id+payload, so length >= 9)
//
// Requests (deadline is relative nanoseconds, 0 = none):
//
//	BATCH_READ  := u64 deadline | u32 count | count×(u64 addr, u32 n)
//	BATCH_WRITE := u64 deadline | u32 count | count×(u64 addr, u32 len, data)
//	FLUSH       := u64 deadline
//	EPOCH       := u64 addr
//
// Every data frame is a batch frame; a single op travels as a batch of
// one. The server validates each frame as a whole, then adds its ops to
// the connection's one pending batch, joined with the frames pipelined
// behind it, and answers each frame with its own response once the
// batch has run as one store call. A nonzero deadline is measured from
// the frame's arrival and bounds the store call end to end: the server
// maps it to a context on the store's ReadBatchCtx/WriteBatchCtx path,
// so per-op recovery work is deadline-bounded, and ops the deadline
// kills answer stDeadline (or stRecoveryInProgress) individually inside
// an stOK batch response. Joined frames run under the earliest of their
// deadlines; a frame joins only while that still leaves it at least
// half of its own budget, so a frame may give up early, never late. An
// op whose deadline has already expired when its batch runs is not
// served: it reports stDeadline — an expired deadline is a deadline
// outcome, never silent success.
//
// Responses echo the opcode and request id, then carry a status byte:
//
//	response := u8 status | payload
//
// On stOK: BATCH_READ carries u32 count | count×(u8 status, u32 len,
// data); BATCH_WRITE carries u32 count | count×u8 status; FLUSH is
// empty; EPOCH carries the u64 loss epoch. Per-op failures carry status
// codes only. Any other status refuses the whole frame (malformed,
// unknown or retired opcode, failed FLUSH), and its payload is a
// human-readable error message.
//
// Responses may arrive in any order; the request id is the correlation
// key. Clients pipeline by keeping many ids in flight.
package netsrv

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"twodcache/internal/bufpool"
	"twodcache/internal/pcache"
	"twodcache/internal/resilience"
)

// Opcodes. Responses echo the request's opcode. 1 and 2, the retired
// single READ and WRITE, and 6, the retired STATS, are held so the
// others keep their numbers; like any unknown opcode they answer
// stBadRequest.
const (
	opBatchRead uint8 = iota + 3
	opBatchWrite
	opFlush
	_ // 6, the retired STATS
	opEpoch
)

// Status codes. Everything except stOK maps back to a canonical error
// on the client so errors.Is works across the wire.
const (
	stOK uint8 = iota
	// stUncorrectable: the ladder exhausted — pcache.ErrUncorrectable.
	stUncorrectable
	// stRecoveryInProgress: a bounded request abandoned an in-flight
	// repair — resilience.ErrRecoveryInProgress.
	stRecoveryInProgress
	// stDeadline: the request's deadline expired —
	// context.DeadlineExceeded.
	stDeadline
	// stCanceled: the serving context was cancelled — context.Canceled.
	stCanceled
	// stBadRequest: the frame was malformed or unserviceable (bad
	// geometry, zero-length read, oversized batch, unknown opcode).
	stBadRequest
	// stDraining: the server is shutting down and refused the request.
	stDraining
	// stUnsupported: the opcode needs a hook the server lacks (EPOCH
	// without an oracle).
	stUnsupported
	// stError: any other failure; the payload carries the message.
	stError
)

// Frame geometry and guard rails.
const (
	frameHeader = 4         // the u32 length prefix
	frameFixed  = 1 + 8     // opcode + request id, covered by length
	maxFrame    = 4 << 20   // hard cap on one frame's length field
	maxBatchOps = 1 << 16   // ops per batch frame
	maxReadLen  = 1 << 20   // bytes per read op
	readBufSize = 64 * 1024 // bufio sizes on both sides
)

// Protocol-level sentinels surfaced by the client.
var (
	// ErrDraining reports that the server refused the request because
	// it is shutting down.
	ErrDraining = errors.New("netsrv: server draining")
	// ErrBadRequest reports a request the server rejected as malformed
	// or unserviceable.
	ErrBadRequest = errors.New("netsrv: bad request")
	// ErrUnsupported reports an opcode the server cannot serve (EPOCH
	// without an oracle hook).
	ErrUnsupported = errors.New("netsrv: unsupported operation")
	// ErrClosed reports that the client connection is closed (by Close
	// or a transport failure); the wrapped cause is attached.
	ErrClosed = errors.New("netsrv: connection closed")
)

// RemoteError is a non-OK response decoded from the wire. It unwraps to
// the canonical sentinel for its status, so
// errors.Is(err, pcache.ErrUncorrectable), errors.Is(err,
// context.DeadlineExceeded), etc. classify remote failures exactly like
// local ones. Coordinates inside Msg are the server store's — already
// globalised when the store is sharded.
type RemoteError struct {
	Status uint8
	Msg    string
}

// Error implements error.
func (e *RemoteError) Error() string {
	if e.Msg != "" {
		return "netsrv: remote: " + e.Msg
	}
	return fmt.Sprintf("netsrv: remote status %d", e.Status)
}

// Unwrap maps the status to its canonical sentinel.
func (e *RemoteError) Unwrap() error {
	switch e.Status {
	case stUncorrectable:
		return pcache.ErrUncorrectable
	case stRecoveryInProgress:
		return resilience.ErrRecoveryInProgress
	case stDeadline:
		return context.DeadlineExceeded
	case stCanceled:
		return context.Canceled
	case stBadRequest:
		return ErrBadRequest
	case stDraining:
		return ErrDraining
	case stUnsupported:
		return ErrUnsupported
	}
	return nil
}

// statusOf classifies a store error into its wire status.
func statusOf(err error) uint8 {
	switch {
	case err == nil:
		return stOK
	case errors.Is(err, resilience.ErrRecoveryInProgress):
		// Checked before the context sentinels: a RecoveryInProgressError
		// carries the deadline cause in its chain, and the more specific
		// classification must win.
		return stRecoveryInProgress
	case errors.Is(err, pcache.ErrUncorrectable):
		return stUncorrectable
	case errors.Is(err, context.DeadlineExceeded):
		return stDeadline
	case errors.Is(err, context.Canceled):
		return stCanceled
	}
	return stError
}

// statusErr maps a wire status back to an error (nil for stOK).
func statusErr(status uint8, msg string) error {
	if status == stOK {
		return nil
	}
	return &RemoteError{Status: status, Msg: msg}
}

// Big-endian shorthands used throughout the codec.
func be64(b []byte) uint64 { return binary.BigEndian.Uint64(b) }
func be32(b []byte) uint32 { return binary.BigEndian.Uint32(b) }

func bePut64(b []byte, v uint64) { binary.BigEndian.PutUint64(b, v) }
func bePut32(b []byte, v uint32) { binary.BigEndian.PutUint32(b, v) }

func be64Append(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }
func be32Append(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }

// frame is one decoded request or response.
type frame struct {
	op      uint8
	id      uint64
	payload []byte
}

// frameHdr is the fixed head of a frame: length, opcode, request id.
// Each reading goroutine owns one (a field of the server conn or the
// client) and hands it to every readFrame, so reading a header costs
// no allocation.
type frameHdr [frameHeader + frameFixed]byte

// readFrame decodes one frame, reading its header into hdr. The
// payload comes from bufpool and belongs to the caller, who Puts it
// once nothing aliases it: the server's reader loop at the point each
// handler stops retaining the frame, a client call once it has decoded
// the response.
func readFrame(r io.Reader, hdr *frameHdr) (frame, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	length := binary.BigEndian.Uint32(hdr[0:4])
	if length < frameFixed || length > maxFrame {
		return frame{}, fmt.Errorf("netsrv: frame length %d out of range", length)
	}
	f := frame{
		op:      hdr[4],
		id:      binary.BigEndian.Uint64(hdr[5:13]),
		payload: bufpool.Get(int(length - frameFixed)),
	}
	if _, err := io.ReadFull(r, f.payload); err != nil {
		bufpool.Put(f.payload)
		return frame{}, err
	}
	return f, nil
}

// appendFrame encodes a frame into buf and returns the extended slice.
func appendFrame(buf []byte, op uint8, id uint64, payload ...[]byte) []byte {
	n := 0
	for _, p := range payload {
		n += len(p)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(frameFixed+n))
	buf = append(buf, op)
	buf = binary.BigEndian.AppendUint64(buf, id)
	for _, p := range payload {
		buf = append(buf, p...)
	}
	return buf
}

// deadlineCtx converts a wire deadline (nanoseconds relative to from,
// the request's arrival) into a context. A zero deadline returns the
// parent with a no-op cancel.
func deadlineCtx(parent context.Context, from time.Time, nanos uint64) (context.Context, context.CancelFunc) {
	if nanos == 0 {
		return parent, func() {}
	}
	return context.WithDeadline(parent, dueAt(from, nanos))
}

// dueAt is the absolute deadline of a wire deadline field received at
// from; the zero Time for 0 (no deadline). Values above MaxInt64 —
// which time.Duration cannot represent — clamp to MaxInt64 instead of
// wrapping negative and expiring instantly.
func dueAt(from time.Time, nanos uint64) time.Time {
	if nanos == 0 {
		return time.Time{}
	}
	if nanos > math.MaxInt64 {
		nanos = math.MaxInt64
	}
	return from.Add(time.Duration(nanos))
}
