package msgnet

import (
	"fmt"
	"testing"

	"repro/internal/appendmem"
	"repro/internal/sim"
	"repro/internal/xrand"
)

func newNet(n int) (*sim.Sim, *Network) {
	s := sim.New()
	return s, New(s, xrand.New(1, 1), n, 1.0)
}

func TestSendDelivers(t *testing.T) {
	s, nw := newNet(3)
	var got []Envelope
	nw.Register(1, func(e Envelope) { got = append(got, e) })
	nw.Send(0, 1, "hello", []byte("payload"))
	s.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d messages", len(got))
	}
	e := got[0]
	if e.From != 0 || e.To != 1 || e.Kind != "hello" || string(e.Body) != "payload" {
		t.Fatalf("envelope = %+v", e)
	}
}

func TestDelayBounded(t *testing.T) {
	s := sim.New()
	nw := New(s, xrand.New(2, 2), 2, 0.5)
	var deliveredAt sim.Time
	nw.Register(1, func(Envelope) { deliveredAt = s.Now() })
	nw.Send(0, 1, "x", nil)
	s.Run()
	if deliveredAt <= 0 || deliveredAt > 0.5 {
		t.Fatalf("delivery at %v, want (0, 0.5]", deliveredAt)
	}
}

func TestBroadcastReachesAllIncludingSelf(t *testing.T) {
	s, nw := newNet(4)
	counts := make([]int, 4)
	for i := 0; i < 4; i++ {
		i := i
		nw.Register(appendmem.NodeID(i), func(Envelope) { counts[i]++ })
	}
	nw.Broadcast(2, "b", nil)
	s.Run()
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("node %d received %d", i, c)
		}
	}
}

func TestBodyIsCopied(t *testing.T) {
	s, nw := newNet(2)
	body := []byte{1, 2, 3}
	var got []byte
	nw.Register(1, func(e Envelope) { got = e.Body })
	nw.Send(0, 1, "x", body)
	body[0] = 99
	s.Run()
	if got[0] != 1 {
		t.Fatal("Send aliased the caller's body")
	}
}

func TestDropFilter(t *testing.T) {
	s, nw := newNet(3)
	delivered := 0
	nw.Register(1, func(Envelope) { delivered++ })
	nw.Register(2, func(Envelope) { delivered++ })
	nw.SetDrop(func(e Envelope) bool { return e.To == 1 })
	nw.Send(0, 1, "x", nil)
	nw.Send(0, 2, "x", nil)
	s.Run()
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
	// Dropped messages still count as sent.
	if nw.Stats().Messages != 2 {
		t.Fatalf("messages = %d", nw.Stats().Messages)
	}
}

func TestStats(t *testing.T) {
	s, nw := newNet(3)
	nw.Register(1, func(Envelope) {})
	nw.Send(0, 1, "a", []byte("1234"))
	nw.Send(0, 1, "b", []byte("12"))
	nw.Send(0, 1, "a", nil)
	s.Run()
	st := nw.Stats()
	if st.Messages != 3 || st.Bytes != 6 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ByKind["a"] != 2 || st.ByKind["b"] != 1 {
		t.Fatalf("by kind = %v", st.ByKind)
	}
}

func TestSignVerify(t *testing.T) {
	_, nw := newNet(3)
	data := []byte("the record")
	sig := nw.Signer(0).Sign(data)
	if !nw.Verify(0, data, sig) {
		t.Fatal("valid signature rejected")
	}
	if nw.Verify(1, data, sig) {
		t.Fatal("signature verified against wrong key")
	}
	if nw.Verify(0, []byte("tampered"), sig) {
		t.Fatal("signature verified over tampered data")
	}
	if nw.Verify(99, data, sig) {
		t.Fatal("out-of-range id verified")
	}
}

func TestForgeryImpossible(t *testing.T) {
	// A Byzantine node signing with its own key cannot produce a signature
	// valid under a correct node's key.
	_, nw := newNet(3)
	data := []byte("forged claim: node 0 said X")
	byzSig := nw.Signer(2).Sign(data)
	if nw.Verify(0, data, byzSig) {
		t.Fatal("forged signature accepted")
	}
}

func TestKeysDeterministic(t *testing.T) {
	_, nw1 := newNet(3)
	_, nw2 := newNet(3)
	for i := 0; i < 3; i++ {
		a, b := nw1.PublicKey(appendmem.NodeID(i)), nw2.PublicKey(appendmem.NodeID(i))
		if string(a) != string(b) {
			t.Fatal("keys differ across identical constructions")
		}
	}
}

func TestUnregisteredReceiverDoesNotCrash(t *testing.T) {
	s, nw := newNet(2)
	nw.Send(0, 1, "x", nil)
	s.Run() // no handler for 1: must not panic
}

func TestSendOutOfRangePanics(t *testing.T) {
	_, nw := newNet(2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Send did not panic")
		}
	}()
	nw.Send(0, 5, "x", nil)
}

// TestOracleEqualTimestampDrainOrder pins the delivery heap's contract:
// deliveries scheduled for the same instant drain in scheduling order,
// the order the simulator fires their events in. The delay draw cannot be
// made to tie, so the deliveries are scheduled directly.
func TestOracleEqualTimestampDrainOrder(t *testing.T) {
	s, nw := newNet(3)
	var order []string
	for i := 0; i < 3; i++ {
		i := i
		nw.Register(appendmem.NodeID(i), func(e Envelope) {
			order = append(order, fmt.Sprintf("%d<-%s", i, e.Body))
		})
	}
	nw.deliverAfter(0.25, Envelope{From: 0, To: 2, Kind: "k", Body: []byte("a")})
	nw.deliverAfter(0.25, Envelope{From: 0, To: 1, Kind: "k", Body: []byte("b")})
	nw.deliverAfter(0.25, Envelope{From: 0, To: 0, Kind: "k", Body: []byte("c")})
	s.Run()
	if want := "[2<-a 1<-b 0<-c]"; fmt.Sprint(order) != want {
		t.Fatalf("order = %v, want %s", order, want)
	}
}

// TestVerifyMemoRejectsForgeries checks triples that must fail
// verification even though they sit next to the valid triple (0, data,
// sig): forgeries over the same data, the valid sig under another id,
// tampered data, and sigs of the wrong length, including those whose bytes
// run on into the data exactly like the valid triple's. Each case runs
// once after the valid triple is cached and once on an empty memo, where
// the valid triple must still verify after the forgery's result is cached.
func TestVerifyMemoRejectsForgeries(t *testing.T) {
	data := []byte("the record every recipient checks")
	_, keys := newNet(3)
	sig := keys.Signer(0).Sign(data)
	flipped := append([]byte(nil), sig...)
	flipped[0] ^= 1
	tampered := append([]byte(nil), data...)
	tampered[len(tampered)-1] ^= 1
	cases := []struct {
		name string
		id   appendmem.NodeID
		data []byte
		sig  []byte
	}{
		{"another signer's sig", 0, data, keys.Signer(1).Sign(data)},
		{"one sig bit flipped", 0, data, flipped},
		{"valid sig under another id", 1, data, sig},
		{"tampered data", 0, tampered, sig},
		{"extended data", 0, append(append([]byte(nil), data...), 0), sig},
		{"sig[:63], sig[63:]‖data", 0, append(append([]byte(nil), sig[63:]...), data...), sig[:63]},
		{"sig‖data[0], data[1:]", 0, data[1:], append(append([]byte(nil), sig...), data[0])},
		{"empty sig", 0, append(append([]byte(nil), sig...), data...), nil},
	}
	for _, c := range cases {
		for _, cached := range []bool{true, false} {
			_, nw := newNet(3) // same keys, empty memo
			if cached && !nw.Verify(0, data, sig) {
				t.Fatal("valid signature rejected")
			}
			if nw.Verify(c.id, c.data, c.sig) {
				t.Errorf("cached=%v: %s accepted", cached, c.name)
			}
			if !nw.Verify(0, data, sig) {
				t.Fatalf("cached=%v: valid signature rejected after %s", cached, c.name)
			}
		}
	}
}

// An invalid result, once cached, stays invalid; calls rejected for an
// unknown signer or a malformed sig never reach the memo or the counters.
func TestVerifyMemoCachesInvalid(t *testing.T) {
	_, nw := newNet(3)
	data := []byte("the record")
	forged := nw.Signer(2).Sign(data)
	for i := 0; i < 3; i++ {
		if nw.Verify(0, data, forged) {
			t.Fatalf("call %d: forged signature accepted", i)
		}
	}
	nw.Verify(0, data, forged[:10])
	nw.Verify(7, data, forged)
	if st := nw.Stats(); st.Verifies != 3 || st.VerifyHits != 2 {
		t.Fatalf("Verifies = %d, VerifyHits = %d; want 3 and 2", st.Verifies, st.VerifyHits)
	}
	if !nw.Verify(2, data, forged) {
		t.Fatal("the signature is valid under its real signer")
	}
}

func TestVerifyMemoHitDoesNotAllocate(t *testing.T) {
	_, nw := newNet(3)
	data := []byte("the record")
	sig := nw.Signer(1).Sign(data)
	nw.Verify(1, data, sig)
	if a := testing.AllocsPerRun(100, func() { nw.Verify(1, data, sig) }); a != 0 {
		t.Fatalf("memo hit allocates %v times", a)
	}
}
