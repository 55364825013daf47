// Package distrib shards a scenario sweep across worker processes: a
// coordinator splits the (sweep point, trial range) space into leases,
// dispatches them to workers speaking length-prefixed JSON over stdio or
// TCP, and merges the returned per-trial metric vectors in (point, chunk,
// trial) order — so the output is byte-identical to a single-process
// scenario.RunSpec at the same seed, at any worker count, across process
// and host boundaries. A content-addressed result cache keyed on
// (canonical spec hash, seed, chunk) lets repeated sweeps skip completed
// leases, and lease timeouts with reassignment make a killed worker a
// wall-clock event, never an output change.
package distrib

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/scenario"
)

// Version is the wire protocol version; both ends send it in their hello
// and refuse to talk across a mismatch (a stale amworker binary must fail
// loudly, not corrupt a sweep).
const Version = 1

// maxFrame bounds a single frame; a lease for a huge topology table or a
// result for a huge chunk stays far below this.
const maxFrame = 64 << 20

// frameChunk caps the buffer ReadFrame reserves before any payload byte
// arrives.
const frameChunk = 64 << 10

// msgType enumerates the protocol messages.
type msgType string

const (
	// msgHello opens both directions of a connection: version check.
	msgHello msgType = "hello"
	// msgLease (coordinator → worker) assigns one (spec, trial range).
	msgLease msgType = "lease"
	// msgResult (worker → coordinator) returns a lease's trial vectors.
	msgResult msgType = "result"
	// msgError (worker → coordinator) reports a deterministic lease
	// failure (bind error, trial panic). Never retried: the same lease
	// would fail everywhere.
	msgError msgType = "error"
)

// Msg is the single wire envelope. Fields are populated per Type.
type Msg struct {
	Type    msgType        `json:"type"`
	Version int            `json:"version,omitempty"` // hello
	ID      int            `json:"id,omitempty"`      // lease/result/error: lease id
	Spec    *scenario.Spec `json:"spec,omitempty"`    // lease: the point spec (Sweep empty, Metrics resolved)
	Lo      int            `json:"lo,omitempty"`      // lease: first trial index (inclusive)
	Hi      int            `json:"hi,omitempty"`      // lease: last trial index (exclusive)
	Vals    [][]uint64     `json:"vals,omitempty"`    // result: per-trial metric vectors, IEEE-754 bits
	Err     string         `json:"error,omitempty"`   // error
}

// PackVals converts per-trial metric vectors to their IEEE-754 bit
// patterns for the wire. JSON cannot carry NaN and re-parsing decimal
// floats risks the one-ULP drift that would break byte-identical output;
// the bit pattern round-trips every value exactly, NaN included.
func PackVals(vals [][]float64) [][]uint64 {
	out := make([][]uint64, len(vals))
	for i, row := range vals {
		bits := make([]uint64, len(row))
		for j, v := range row {
			bits[j] = math.Float64bits(v)
		}
		out[i] = bits
	}
	return out
}

// UnpackVals is the inverse of PackVals.
func UnpackVals(bits [][]uint64) [][]float64 {
	out := make([][]float64, len(bits))
	for i, row := range bits {
		vals := make([]float64, len(row))
		for j, b := range row {
			vals[j] = math.Float64frombits(b)
		}
		out[i] = vals
	}
	return out
}

// WriteFrame writes one length-prefixed JSON message: a 4-byte big-endian
// payload length followed by the payload.
func WriteFrame(w io.Writer, m *Msg) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("distrib: encode %s: %w", m.Type, err)
	}
	if len(payload) > maxFrame {
		return fmt.Errorf("distrib: %s frame of %d bytes exceeds the %d-byte bound", m.Type, len(payload), maxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed JSON message.
func ReadFrame(r io.Reader, m *Msg) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err // io.EOF between frames means a clean close
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return fmt.Errorf("distrib: frame of %d bytes exceeds the %d-byte bound", n, maxFrame)
	}
	// The header is the peer's claim, not a fact: start the buffer small
	// and let it grow only with bytes that actually arrive, so a lying
	// header followed by a close costs nothing near the claimed size. The
	// extra MinRead keeps a frame up to frameChunk in one allocation, with
	// room for the read that sees the limit's EOF.
	var buf bytes.Buffer
	buf.Grow(min(int(n), frameChunk) + bytes.MinRead)
	if _, err := buf.ReadFrom(io.LimitReader(r, int64(n))); err != nil {
		return fmt.Errorf("distrib: truncated frame: %w", err)
	}
	if buf.Len() < int(n) {
		return fmt.Errorf("distrib: truncated frame: %w", io.ErrUnexpectedEOF)
	}
	*m = Msg{}
	if err := json.Unmarshal(buf.Bytes(), m); err != nil {
		return fmt.Errorf("distrib: bad frame: %w", err)
	}
	return nil
}
