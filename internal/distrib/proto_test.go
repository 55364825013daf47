package distrib

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// frame returns the wire bytes of m.
func frame(t testing.TB, m *Msg) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := WriteFrame(&b, m); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// header returns a bare length header claiming n payload bytes.
func header(n uint32) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], n)
	return hdr[:]
}

// TestReadFrameRoundTrip reads back frames below and well above the
// buffer ReadFrame reserves up front, back to back on one stream.
func TestReadFrameRoundTrip(t *testing.T) {
	small := &Msg{Type: msgResult, ID: 3, Vals: [][]uint64{{1, 2}, {3}}}
	big := &Msg{Type: msgError, ID: 4, Err: strings.Repeat("x", 3*frameChunk+17)}
	r := bytes.NewReader(append(frame(t, small), frame(t, big)...))
	for _, want := range []*Msg{small, big} {
		var got Msg
		if err := ReadFrame(r, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("frame %d read back differently", want.ID)
		}
	}
	if err := ReadFrame(r, &Msg{}); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// TestReadFrameRejectsOversizedHeader refuses a claim past the bound
// before reading any payload.
func TestReadFrameRejectsOversizedHeader(t *testing.T) {
	err := ReadFrame(bytes.NewReader(header(maxFrame+1)), &Msg{})
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized header: %v", err)
	}
}

// TestReadFrameLyingHeaderAllocatesLittle sends a header claiming the
// maximum frame and then closes, with and without a few payload bytes in
// between: the read must fail as a truncated frame, and the memory it
// allocates must track what arrived, not the 64 MiB claimed.
func TestReadFrameLyingHeaderAllocatesLittle(t *testing.T) {
	for _, body := range []int{0, 100} {
		in := append(header(maxFrame), make([]byte, body)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := ReadFrame(bytes.NewReader(in), &Msg{})
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "truncated frame") {
			t.Fatalf("%d body bytes: err = %v, want a truncated frame", body, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > maxFrame/64 {
			t.Fatalf("%d body bytes: allocated %d bytes for a %d-byte claim", body, got, maxFrame)
		}
	}
}

// FuzzReadFrame feeds arbitrary bytes to ReadFrame. It must never panic,
// must refuse a header that claims more payload than the input holds,
// and on success must consume exactly the header and the claimed payload,
// so the next frame starts where the peer put it.
func FuzzReadFrame(f *testing.F) {
	valid := frame(f, &Msg{Type: msgLease, ID: 1, Lo: 0, Hi: 8})
	f.Add(valid)
	f.Add(header(maxFrame + 1))
	f.Add(valid[:len(valid)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		err := ReadFrame(r, &Msg{})
		if len(data) < 4 {
			if err == nil {
				t.Fatal("read a frame from fewer than 4 bytes")
			}
			return
		}
		n := int(binary.BigEndian.Uint32(data))
		if err != nil {
			return
		}
		if n > len(data)-4 {
			t.Fatalf("accepted a %d-byte claim with %d payload bytes", n, len(data)-4)
		}
		if rest := len(data) - 4 - n; r.Len() != rest {
			t.Fatalf("left %d bytes unread, want %d", r.Len(), rest)
		}
	})
}
