package inla

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// overflowMatrix is a matrix header whose 8·rows·cols byte count wraps
// negative in int arithmetic: rows = cols = 2³¹−1.
func overflowMatrix(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, 1<<31-1)
	return binary.AppendUvarint(buf, 1<<31-1)
}

// overflowResult is a Result encoding whose ThetaCov header overflows.
func overflowResult() []byte {
	return overflowMatrix([]byte{resultCodecVersion, resHasThetaCov, 0})
}

// overflowCheckpoint is an OptCheckpoint encoding whose HInv header
// overflows.
func overflowCheckpoint() []byte {
	return overflowMatrix(appendF64([]byte{optCheckpointVersion, 0, 0}, 1))
}

// TestCodecRejectsOverflowingMatrix: a matrix header whose byte count
// overflows is an error, not a makeslice panic.
func TestCodecRejectsOverflowingMatrix(t *testing.T) {
	if _, err := UnmarshalResult(overflowResult()); err == nil {
		t.Fatal("UnmarshalResult accepted a 2³¹−1 × 2³¹−1 ThetaCov")
	}
	if _, err := UnmarshalOptCheckpoint(overflowCheckpoint()); err == nil {
		t.Fatal("UnmarshalOptCheckpoint accepted a 2³¹−1 × 2³¹−1 HInv")
	}
}

// addSeeds adds each encoding and every truncation of it to the corpus.
func addSeeds(f *testing.F, encs ...[]byte) {
	for _, enc := range encs {
		for n := 0; n <= len(enc); n++ {
			f.Add(enc[:n])
		}
	}
}

// FuzzUnmarshalResult: decoding never panics, and a successful decode
// re-encodes to bytes that decode to the same value.
func FuzzUnmarshalResult(f *testing.F) {
	for _, r := range codecResultFixtures() {
		addSeeds(f, MarshalResult(r))
	}
	f.Add(overflowResult())
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := UnmarshalResult(data)
		if err != nil {
			return
		}
		enc := MarshalResult(r)
		again, err := UnmarshalResult(enc)
		if err != nil {
			t.Fatalf("re-encoded result does not decode: %v", err)
		}
		if !bytes.Equal(MarshalResult(again), enc) {
			t.Fatal("re-encoded result decodes to a different value")
		}
	})
}

// FuzzUnmarshalOptCheckpoint: decoding never panics, and a successful
// decode re-encodes to bytes that decode to the same value.
func FuzzUnmarshalOptCheckpoint(f *testing.F) {
	addSeeds(f, MarshalOptCheckpoint(codecCheckpointFixture()))
	f.Add(overflowCheckpoint())
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := UnmarshalOptCheckpoint(data)
		if err != nil {
			return
		}
		enc := MarshalOptCheckpoint(ck)
		again, err := UnmarshalOptCheckpoint(enc)
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		if !bytes.Equal(MarshalOptCheckpoint(again), enc) {
			t.Fatal("re-encoded checkpoint decodes to a different value")
		}
	})
}
