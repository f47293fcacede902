package store

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeEntry feeds arbitrary bytes to decodeEntry, the reader of
// every .tve object. It must never panic, and every entry it accepts must
// round-trip: re-encoding it and decoding the result gives the same entry
// back, and encoding that again is byte-identical.
func FuzzDecodeEntry(f *testing.F) {
	written, err := encodeEntry(testEntry())
	if err != nil {
		f.Fatal(err)
	}
	// The writer's own bytes decode to the entry they were written from
	// and re-encode unchanged.
	e, err := decodeEntry(written)
	if err != nil {
		f.Fatalf("encoded entry does not decode: %v", err)
	}
	if !reflect.DeepEqual(e, testEntry()) {
		f.Fatalf("decoded entry %+v, want %+v", e, testEntry())
	}
	if again, _ := encodeEntry(e); !bytes.Equal(again, written) {
		f.Fatal("re-encoding a decoded entry changed its bytes")
	}

	f.Add(written)
	bare, err := encodeEntry(&Entry{Meta: Meta{Function: "g", Class: "Failed"}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bare)
	for _, n := range []int{0, len(entryMagic), len(entryMagic) + 1, len(entryMagic) + 2, len(written) / 2, len(written) - 1} {
		f.Add(written[:n])
	}
	flipped := bytes.Clone(written)
	flipped[len(entryMagic)] ^= 0xff
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := decodeEntry(data)
		if err != nil {
			return
		}
		enc, err := encodeEntry(e)
		if err != nil {
			t.Fatalf("decoded entry does not re-encode: %v", err)
		}
		back, err := decodeEntry(enc)
		if err != nil {
			t.Fatalf("re-encoded entry does not decode: %v", err)
		}
		if !reflect.DeepEqual(back, e) {
			t.Fatalf("round trip changed the entry: %+v, want %+v", back, e)
		}
		if again, _ := encodeEntry(back); !bytes.Equal(again, enc) {
			t.Fatal("encoding is not a fixed point of the round trip")
		}
	})
}
