package tracebin

import (
	"bytes"
	"reflect"
	"testing"

	"ldcflood/internal/tracelog"
)

// FuzzReader feeds arbitrary bytes to the binary reader. The invariants:
// the reader never panics; a decodable input re-encodes to a canonical
// document that decodes to the same events (decode/encode/decode is a
// fixed point); and a torn result is never also an error.
func FuzzReader(f *testing.F) {
	// Seeds: a small valid trace, its torn truncations, corrupt headers,
	// an unknown record kind, and a varint bomb.
	good, err := Encode([]tracelog.Event{
		{Kind: tracelog.KindInject, T: 3, Packet: 0},
		{Kind: tracelog.KindTransmit, T: 4, From: 0, To: 7, Packet: 0, Outcome: 0},
		{Kind: tracelog.KindOverhear, T: 4, From: 0, To: 9, Packet: 0},
		{Kind: tracelog.KindCovered, T: 9, Packet: 0},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-1])                                                                                                // torn tail
	f.Add(good[:headerLen])                                                                                                  // clean empty trace
	f.Add(good[:headerLen-1])                                                                                                // torn header
	f.Add([]byte{})                                                                                                          // empty file
	f.Add([]byte("I 3 0\n"))                                                                                                 // a text rendering (bad magic)
	f.Add([]byte("LDCT\x02"))                                                                                                // newer version
	f.Add(append(append([]byte(nil), good...), 0x7f))                                                                        // unknown kind
	f.Add(append(append([]byte(nil), good...), RecInject, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)) // varint bomb

	f.Fuzz(func(t *testing.T, data []byte) {
		events, torn, err := ReadAll(bytes.NewReader(data))
		if err != nil && torn {
			t.Fatalf("torn and corrupt at once: %v", err)
		}
		if err != nil {
			if _, ok := err.(*CorruptError); !ok {
				t.Fatalf("non-CorruptError from ReadAll: %v", err)
			}
			return
		}
		// Whatever decoded cleanly must survive a canonical round trip.
		bin, err := Encode(events)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, torn2, err := ReadAll(bytes.NewReader(bin))
		if err != nil || torn2 {
			t.Fatalf("canonical document failed to decode: torn=%v err=%v", torn2, err)
		}
		if len(events) != len(back) || (len(events) > 0 && !reflect.DeepEqual(events, back)) {
			t.Fatal("decode/encode/decode is not a fixed point")
		}
	})
}
