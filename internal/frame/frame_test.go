package frame

import (
	"bytes"
	"errors"
	"testing"
)

// TestReplayHandsOnEverythingRead pins the proxy contract: after reading a
// connection's first frame through a window that also took the frames
// behind it, Replay returns that frame verbatim plus every byte read past
// it, so the next hop sees the exact stream the client sent.
func TestReplayHandsOnEverythingRead(t *testing.T) {
	var wire bytes.Buffer
	w := New(&wire, 64, 1<<10)
	for _, p := range []string{"opening", "second", "third"} {
		if err := w.End(append(w.Begin(), p...)); err != nil {
			t.Fatal(err)
		}
	}
	sent := append([]byte(nil), wire.Bytes()...)

	r := New(&wire, 64, 1<<10)
	payload, err := r.Read()
	if err != nil || string(payload) != "opening" {
		t.Fatalf("Read = %q, %v", payload, err)
	}
	if got := r.Replay(); !bytes.Equal(got, sent) {
		t.Fatalf("Replay = %x, want every byte sent %x", got, sent)
	}
}

// TestPayloadBound pins the per-protocol bound on both sides: a frame over
// it is refused by End and rejected by Read, typed.
func TestPayloadBound(t *testing.T) {
	var wire bytes.Buffer
	small := New(&wire, 16, 8)
	if err := small.End(append(small.Begin(), "nine byte"...)); !errors.Is(err, ErrWire) {
		t.Fatalf("End over the bound: %v, want ErrWire", err)
	}
	if wire.Len() != 0 {
		t.Fatalf("an abandoned frame reached the wire: %x", wire.Bytes())
	}
	big := New(&wire, 16, 16)
	if err := big.End(append(big.Begin(), "nine byte"...)); err != nil {
		t.Fatal(err)
	}
	if _, err := small.Read(); !errors.Is(err, ErrWire) {
		t.Fatalf("Read over the bound: %v, want ErrWire", err)
	}
}
