package msgnet

import (
	"crypto/ed25519"
	"testing"

	"repro/internal/appendmem"
)

// FuzzVerifyMemo is a differential check of the memo: with a few valid
// triples already cached, Verify on an arbitrary (id, data, sig) must
// agree with a direct ed25519.Verify under the same id range check, and
// so must a second, memo-served call.
func FuzzVerifyMemo(f *testing.F) {
	_, nw := newNet(4)
	for i := 0; i < 4; i++ {
		data := []byte{byte(i), 'r', 'e', 'c'}
		sig := nw.Signer(appendmem.NodeID(i)).Sign(data)
		if !nw.Verify(appendmem.NodeID(i), data, sig) {
			f.Fatal("valid seed triple rejected")
		}
		f.Add(int32(i), data, sig)
		f.Add(int32(i+1), data, sig)
		f.Add(int32(i), append(append([]byte(nil), sig[63:]...), data...), sig[:63])
		f.Add(int32(i), data[1:], append(append([]byte(nil), sig...), data[0]))
	}
	f.Fuzz(func(t *testing.T, id int32, data, sig []byte) {
		node := appendmem.NodeID(id)
		want := node >= 0 && int(node) < nw.N() && ed25519.Verify(nw.PublicKey(node), data, sig)
		for call := 0; call < 2; call++ {
			if got := nw.Verify(node, data, sig); got != want {
				t.Fatalf("call %d: Verify(%d, %x, %x) = %v, ed25519 says %v", call, id, data, sig, got, want)
			}
		}
	})
}
