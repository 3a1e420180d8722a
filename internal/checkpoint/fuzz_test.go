package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"reflect"
	"testing"
)

// fuzzSeedSnapshot builds a small but fully populated snapshot so the
// fuzzer starts from a structurally valid envelope and mutates inward:
// every optional block (rows, counts, energy, sections) is present.
func fuzzSeedSnapshot() *Snapshot {
	s := &Snapshot{
		Fingerprint: Fingerprint{
			App: "segmentation", Backend: "rsu", Seed: 42,
			Iterations: 10, BurnIn: 2, Compile: true,
			AnnealStartT: 2.0, AnnealRate: 0.95, Tag: "units=4",
		},
		Sweep: 3, W: 4, H: 2, M: 3,
		Labels: []uint8{0, 1, 2, 0, 1, 2, 0, 1},
		Chain:  [4]uint64{1, 2, 3, 4},
		Rows:   [][4]uint64{{5, 6, 7, 8}, {9, 10, 11, 12}},
		Counts: make([]uint32, 4*2*3),
		Energy: []float64{-12.5, -11.25},
	}
	s.SetSection(SectionFault, []byte(`{"version":2}`))
	s.SetSection(SectionAging, []byte{0x01, 0x02})
	return s
}

// FuzzCheckpointLoad drives arbitrary bytes through the snapshot decode
// path that Load uses (Load is os.ReadFile + Decode) and enforces the
// decoder's contract:
//
//  1. It never panics, whatever the input.
//  2. Every failure is in the typed-error family: ErrCorrupt or
//     ErrVersion, so resume logic can always classify the damage.
//  3. Every success is semantically closed: the decoded snapshot
//     validates, re-encodes, and the re-encoded bytes decode to a
//     DeepEqual snapshot — with the second encode a byte-exact fixed
//     point (the canonical form).
func FuzzCheckpointLoad(f *testing.F) {
	seed := fuzzSeedSnapshot()
	valid, err := Encode(seed)
	if err != nil {
		f.Fatalf("encoding seed snapshot: %v", err)
	}
	f.Add(valid)

	// Minimal snapshot: no optional blocks at all.
	min := &Snapshot{
		Sweep: 0, W: 2, H: 2, M: 2,
		Labels: []uint8{0, 1, 1, 0},
	}
	if data, err := Encode(min); err == nil {
		f.Add(data)
	}

	// Structured damage the property loop must classify as corruption:
	// truncation, a flipped payload bit, trailing garbage, and a
	// version splice with a recomputed (valid) checksum.
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[headerLen+3] ^= 0x40
	f.Add(flipped)
	f.Add(append(append([]byte(nil), valid...), 0xEE))
	spliced := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(spliced[len(magic):], Version+7)
	body := spliced[:len(spliced)-trailerLen]
	binary.LittleEndian.PutUint64(spliced[len(spliced)-trailerLen:], crc64.Checksum(body, crcTable))
	f.Add(spliced)
	f.Add(wrappedGeometry(f))
	f.Add([]byte(magic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("Decode error outside the typed family: %v", err)
			}
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("decoded snapshot fails Validate: %v", err)
		}
		re, err := Encode(s)
		if err != nil {
			t.Fatalf("re-encoding a decoded snapshot: %v", err)
		}
		s2, err := Decode(re)
		if err != nil {
			t.Fatalf("decoding the re-encoded snapshot: %v", err)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("snapshot not preserved across a re-encode round-trip:\n%+v\nvs\n%+v", s, s2)
		}
		// The encoder output is the canonical byte form: encoding the
		// round-tripped snapshot must be a fixed point.
		re2, err := Encode(s2)
		if err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("encode is not a fixed point: %d vs %d bytes", len(re), len(re2))
		}
	})
}

// wrappedGeometry returns a checksummed snapshot of a 2³²×2³² grid
// with no labels: W·H wraps to 0 in a 64-bit int, so a product check
// would let the empty label field pass. The geometry is patched into
// the bytes of a placeholder grid, so the test builds on 32-bit
// targets too.
func wrappedGeometry(tb testing.TB) []byte {
	tb.Helper()
	const w, h = 0x3a3b3c3d, 0x4a4b4c4d // placeholders no other field holds
	data := encode(&Snapshot{W: w, H: h, M: 2})
	for _, v := range []uint64{w, h} {
		var field [8]byte
		binary.LittleEndian.PutUint64(field[:], v)
		i := bytes.Index(data, field[:])
		if i < 0 {
			tb.Fatalf("placeholder %#x not found in the encoding", v)
		}
		binary.LittleEndian.PutUint64(data[i:], 1<<32)
	}
	body := data[:len(data)-trailerLen]
	binary.LittleEndian.PutUint64(data[len(data)-trailerLen:], crc64.Checksum(body, crcTable))
	return data
}

// TestDecodeRejectsWrappingGeometry: a 2³²×2³² snapshot with no labels
// is corrupt, not an empty grid.
func TestDecodeRejectsWrappingGeometry(t *testing.T) {
	if s, err := Decode(wrappedGeometry(t)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decode = %+v, %v; want ErrCorrupt", s, err)
	}
}

// TestValidateRejectsOversizedGeometry: Validate (and so Encode) sizes
// the grid by division, so geometry beyond the decoder's bound fails
// instead of wrapping, and the mode-counter length is checked exactly.
func TestValidateRejectsOversizedGeometry(t *testing.T) {
	for _, s := range []*Snapshot{
		{W: 1 << 15, H: 1 << 15, M: 2},
		{W: maxSites, H: 2, M: 2},
		{W: -1, H: -1, M: 2},
	} {
		if _, err := Encode(s); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Encode(%dx%d) = %v; want ErrCorrupt", s.W, s.H, err)
		}
	}
	s := &Snapshot{W: 2, H: 2, M: 3, Labels: make([]uint8, 4), Counts: make([]uint32, 11)}
	if err := s.Validate(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("11 counters for 4 sites × 3 labels: %v; want ErrCorrupt", err)
	}
	s.Counts = make([]uint32, 12)
	if err := s.Validate(); err != nil {
		t.Fatalf("12 counters for 4 sites × 3 labels: %v", err)
	}
}
