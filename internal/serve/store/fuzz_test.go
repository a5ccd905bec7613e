package store

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"streamcover/internal/frame"
)

// storeTyped reports whether err is one an SCSTOR1 peer is allowed to see
// for bad bytes: the wire family, the store's own typed errors, or a
// plain short read from the framing layer.
func storeTyped(err error) bool {
	return errors.Is(err, ErrStoreWire) || errors.Is(err, ErrNotFound) || errors.Is(err, errInvalidToken) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// FuzzStoreFrame feeds arbitrary bytes through the three places SCSTOR1
// parses bytes it did not write: the shared frame reader, StoreServer.apply
// (against a MemStore) and the client's reply decoding — both of the
// server's reply and of the raw payload taken as a reply. Nothing may
// panic, and every error must be typed. The one untyped error is a
// well-formed generic failure reply: the server reporting a backing-store
// failure, which MemStore never produces.
func FuzzStoreFrame(f *testing.F) {
	seal := func(payloads ...[]byte) []byte {
		var buf bytes.Buffer
		fio := frame.New(&buf, storeWindow, maxStoreFrame)
		for _, p := range payloads {
			if err := fio.End(append(fio.Begin(), p...)); err != nil {
				f.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	req := func(op byte, token string, blob ...byte) []byte {
		return append(frame.AppendString([]byte{op}, token), blob...)
	}
	put := req(opPut, "tok", []byte("SCCKPT1\nblob")...)
	for _, s := range [][]byte{
		seal(put, req(opGet, "tok"), req(opReserve, "tok"), req(opDelete, "tok"), req(opGet, "tok")),
		seal(req(opReserve, "s000001"), req(opReserve, "s000001")),
		seal(req(opGet, "../escape"), req(0x04, ""), []byte{opDelete}, req(0x7f, "x")),
		seal([]byte{repOK, 12}, []byte{repOK}, []byte{repOK, 1}),
		seal(frame.AppendString([]byte{repErr, storeErrNotFound}, "gone"), frame.AppendString([]byte{repErr, storeErrWire}, "bad")),
		seal(put)[:9], // truncated frame
		{0xff, 0xff, 0xff, 0x7f},
		{},
	} {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		srv := &StoreServer{backing: NewMemStore()}
		fio := frame.New(bytes.NewBuffer(data), storeWindow, maxStoreFrame)
		for {
			payload, err := fio.Read()
			if err != nil {
				if !storeTyped(err) {
					t.Fatalf("untyped framing error: %v", err)
				}
				return
			}
			reply := srv.apply(nil, payload)
			if _, err := decodeReply(reply); err != nil && !storeTyped(err) {
				t.Fatalf("server reply %q to request %q decodes to an untyped error: %v", reply, payload, err)
			}
			generic := len(payload) > 1 && payload[0] == repErr && payload[1] == storeErrGeneric
			if _, err := decodeReply(payload); err != nil && !storeTyped(err) && !generic {
				t.Fatalf("reply %q decodes to an untyped error: %v", payload, err)
			}
		}
	})
}
