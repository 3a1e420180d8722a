// Package checkpoint is the crash-safe persistence layer of the
// inference runtime: a versioned, checksummed snapshot format that
// captures everything an MCMC chain needs to resume bit-exactly — the
// label field, the sweep position, every per-row RNG stream state, the
// diagnostics accumulators, and opaque backend sections (fault-session
// state, RET aging state) — plus write/load primitives over two
// alternating slot files that guarantee a reader never observes a torn
// snapshot.
//
// Format (all integers little-endian):
//
//	[8]  magic "RSUGCKPT"
//	[4]  format version (uint32)
//	[8]  payload length (uint64)
//	[n]  payload
//	[8]  CRC-64/ECMA over everything above (uint64)
//
// The checksum covers the header too, so a truncated, bit-flipped or
// version-spliced file is rejected with ErrCorrupt before any field is
// interpreted. Snapshots are byte-deterministic: the same chain state
// always encodes to the same bytes, for any worker count, so snapshot
// files can themselves be golden-diffed.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"math"
	"sort"

	"repro/internal/img"
)

// Format constants.
const (
	// Version is the current snapshot format version. Decoders accept
	// exactly this version; the versioning rule (DESIGN.md §10) is that
	// any change to the payload layout bumps it.
	//
	// v2: the label field is one byte per site (labels are bit-packed
	// uint8 throughout the runtime; M <= 256), halving snapshot size
	// versus the v1 uint16 encoding.
	Version = 2

	magic      = "RSUGCKPT"
	headerLen  = len(magic) + 4 + 8
	trailerLen = 8

	// maxPayload bounds decoder allocations against corrupt length
	// fields (1 GiB is orders of magnitude above any real chain).
	maxPayload = 1 << 30
	// maxSites bounds the label grid, one byte per site, within it.
	maxSites = maxPayload / 2
)

// Typed decode errors.
var (
	// ErrCorrupt reports a snapshot that failed structural validation:
	// bad magic, truncation, checksum mismatch, or an inconsistent
	// payload. A chaos-killed run can tear at most the one slot it was
	// overwriting, and Load then returns the other, so ErrCorrupt from
	// Load (every present slot damaged) means external damage.
	ErrCorrupt = errors.New("checkpoint: corrupt snapshot")
	// ErrVersion reports a structurally valid snapshot written by an
	// incompatible format version.
	ErrVersion = errors.New("checkpoint: unsupported snapshot version")
	// ErrMismatch reports a snapshot whose fingerprint does not match
	// the run configuration attempting to resume from it.
	ErrMismatch = errors.New("checkpoint: snapshot does not match run configuration")
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// Fingerprint identifies the run a snapshot belongs to. Resuming
// checks it field-for-field — every field changes the chain's byte
// stream, so resuming across any difference would silently diverge
// from the uninterrupted golden run. Worker count is deliberately NOT
// part of the fingerprint: RNG streams attach to rows, so a snapshot
// taken at W=1 resumes bit-exactly at W=N and vice versa.
type Fingerprint struct {
	// App names the application instance ("segmentation", ...).
	App string
	// Backend names the sampling backend ("rsu", "software-gibbs", ...).
	Backend string
	// Seed is the chain seed.
	Seed uint64
	// Iterations and BurnIn are the chain's total sweep budget.
	Iterations int
	BurnIn     int
	// Compile records whether the precomputed-table path was enabled
	// (bit-identical either way, but recorded for provenance).
	Compile bool
	// AnnealStartT and AnnealRate record the cooling schedule (both 0
	// when annealing is off).
	AnnealStartT float64
	AnnealRate   float64
	// Tag carries backend-specific parameters that must also match
	// (RSU width/mode, fault schedule/policy/seed), in a canonical
	// rendering chosen by the layer that owns them.
	Tag string
}

// Check returns ErrMismatch (wrapped, with the first differing field
// named) unless other matches f exactly.
func (f Fingerprint) Check(other Fingerprint) error {
	diff := ""
	switch {
	case f.App != other.App:
		diff = fmt.Sprintf("app %q vs %q", f.App, other.App)
	case f.Backend != other.Backend:
		diff = fmt.Sprintf("backend %q vs %q", f.Backend, other.Backend)
	case f.Seed != other.Seed:
		diff = fmt.Sprintf("seed %d vs %d", f.Seed, other.Seed)
	case f.Iterations != other.Iterations:
		diff = fmt.Sprintf("iterations %d vs %d", f.Iterations, other.Iterations)
	case f.BurnIn != other.BurnIn:
		diff = fmt.Sprintf("burn-in %d vs %d", f.BurnIn, other.BurnIn)
	case f.Compile != other.Compile:
		diff = fmt.Sprintf("compile %v vs %v", f.Compile, other.Compile)
	case math.Float64bits(f.AnnealStartT) != math.Float64bits(other.AnnealStartT),
		math.Float64bits(f.AnnealRate) != math.Float64bits(other.AnnealRate):
		diff = "anneal schedule"
	case f.Tag != other.Tag:
		diff = fmt.Sprintf("tag %q vs %q", f.Tag, other.Tag)
	}
	if diff == "" {
		return nil
	}
	return fmt.Errorf("%w: %s", ErrMismatch, diff)
}

// Snapshot is one resumable chain state, captured strictly at a sweep
// boundary (no sample in flight anywhere).
type Snapshot struct {
	// Fingerprint identifies the run configuration (see Fingerprint).
	Fingerprint Fingerprint
	// Sweep is the index of the next sweep to run: the snapshot was
	// taken after sweep Sweep-1 completed.
	Sweep int
	// W, H, M are the model geometry and label-space size.
	W, H, M int
	// Labels is the row-major bit-packed label field (len W*H, each in
	// [0, M)), sharing img.LabelMap's byte-per-site representation so
	// capture and restore are straight copies.
	Labels []uint8
	// Chain is the sequential (raster-schedule) stream state.
	Chain [4]uint64
	// Rows holds one stream state per image row (len H for
	// checkerboard runs, nil for raster runs).
	Rows [][4]uint64
	// Counts is the per-site per-label sample counter behind the
	// marginal-MAP estimate (len W*H*M, nil when mode tracking is
	// off).
	Counts []uint32
	// Energy is the energy trace accumulated so far.
	Energy []float64
	// Sections carries opaque backend state blobs keyed by name
	// ("fault": the fault session, "aging": RET wear-out state, ...).
	// Encoded in sorted key order so snapshots stay byte-deterministic.
	Sections map[string][]byte
}

// Well-known section names.
const (
	// SectionFault holds the fault-injection session state
	// (fault.Session.MarshalBinary).
	SectionFault = "fault"
	// SectionAging holds RET wear-out state
	// (ret.AgingCircuit.MarshalBinary), one blob per aged circuit.
	SectionAging = "aging"
)

// Validate checks the snapshot's internal consistency (geometry,
// label range, stream counts). Encode and Decode both call it, so an
// inconsistent snapshot can be neither written nor loaded.
func (s *Snapshot) Validate() error {
	sites, ok := img.Area(s.W, s.H, maxSites)
	switch {
	case !ok:
		return fmt.Errorf("%w: geometry %dx%d", ErrCorrupt, s.W, s.H)
	case s.M < 2 || s.M > 256:
		return fmt.Errorf("%w: label count %d", ErrCorrupt, s.M)
	case s.Sweep < 0:
		return fmt.Errorf("%w: negative sweep %d", ErrCorrupt, s.Sweep)
	case len(s.Labels) != sites:
		return fmt.Errorf("%w: %d labels for %dx%d grid", ErrCorrupt, len(s.Labels), s.W, s.H)
	case s.Rows != nil && len(s.Rows) != s.H:
		return fmt.Errorf("%w: %d row streams for %d rows", ErrCorrupt, len(s.Rows), s.H)
	case s.Counts != nil && (len(s.Counts)%s.M != 0 || len(s.Counts)/s.M != sites):
		return fmt.Errorf("%w: %d mode counters for %d sites × %d labels", ErrCorrupt, len(s.Counts), sites, s.M)
	}
	for i, l := range s.Labels {
		if int(l) >= s.M {
			return fmt.Errorf("%w: label %d at site %d outside [0,%d)", ErrCorrupt, l, i, s.M)
		}
	}
	return nil
}

// Clone returns a deep copy (sections included).
func (s *Snapshot) Clone() *Snapshot {
	c := *s
	c.Labels = append([]uint8(nil), s.Labels...)
	if s.Rows != nil {
		c.Rows = append([][4]uint64(nil), s.Rows...)
	}
	if s.Counts != nil {
		c.Counts = append([]uint32(nil), s.Counts...)
	}
	if s.Energy != nil {
		c.Energy = append([]float64(nil), s.Energy...)
	}
	if s.Sections != nil {
		c.Sections = make(map[string][]byte, len(s.Sections))
		for k, v := range s.Sections {
			c.Sections[k] = append([]byte(nil), v...)
		}
	}
	return &c
}

// SetSection attaches (or replaces) a named opaque state blob.
func (s *Snapshot) SetSection(name string, blob []byte) {
	if s.Sections == nil {
		s.Sections = make(map[string][]byte)
	}
	s.Sections[name] = blob
}

// Section returns a named blob (nil, false when absent).
func (s *Snapshot) Section(name string) ([]byte, bool) {
	blob, ok := s.Sections[name]
	return blob, ok
}

// enc is a little-endian payload writer.
type enc struct{ buf []byte }

func (e *enc) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *enc) u16(v uint16) { e.buf = binary.LittleEndian.AppendUint16(e.buf, v) }
func (e *enc) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *enc) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *enc) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *enc) bytes(b []byte) {
	e.u64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}
func (e *enc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

// dec is the matching bounds-checked reader; the first overrun poisons
// it and every subsequent read reports failure.
type dec struct {
	buf []byte
	off int
	bad bool
}

func (d *dec) take(n int) []byte {
	if d.bad || n < 0 || d.off+n > len(d.buf) {
		d.bad = true
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}
func (d *dec) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}
func (d *dec) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}
func (d *dec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}
func (d *dec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *dec) str() string  { return string(d.take(int(d.u32()))) }
func (d *dec) blob() []byte {
	n := d.u64()
	if n > maxPayload {
		d.bad = true
		return nil
	}
	return append([]byte(nil), d.take(int(n))...)
}
func (d *dec) bool() bool { return d.u8() != 0 }

// Encode serializes the snapshot to its canonical byte form (header,
// payload, checksum).
func Encode(s *Snapshot) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return encode(s), nil
}

// encode is Encode without the validation, so tests can build the
// bytes of snapshots Encode refuses.
func encode(s *Snapshot) []byte {
	var e enc
	// Fingerprint.
	e.str(s.Fingerprint.App)
	e.str(s.Fingerprint.Backend)
	e.u64(s.Fingerprint.Seed)
	e.u64(uint64(s.Fingerprint.Iterations))
	e.u64(uint64(s.Fingerprint.BurnIn))
	e.bool(s.Fingerprint.Compile)
	e.f64(s.Fingerprint.AnnealStartT)
	e.f64(s.Fingerprint.AnnealRate)
	e.str(s.Fingerprint.Tag)
	// Geometry and position.
	e.u64(uint64(s.Sweep))
	e.u64(uint64(s.W))
	e.u64(uint64(s.H))
	e.u64(uint64(s.M))
	// Label field: bit-packed, one byte per site (M <= 256).
	e.buf = append(e.buf, s.Labels...)
	// RNG streams.
	for _, w := range s.Chain {
		e.u64(w)
	}
	e.u64(uint64(len(s.Rows)))
	for _, row := range s.Rows {
		for _, w := range row {
			e.u64(w)
		}
	}
	// Diagnostics accumulators.
	e.u64(uint64(len(s.Counts)))
	for _, c := range s.Counts {
		e.u32(c)
	}
	e.u64(uint64(len(s.Energy)))
	for _, v := range s.Energy {
		e.f64(v)
	}
	// Sections, sorted by name for byte determinism.
	names := make([]string, 0, len(s.Sections))
	for name := range s.Sections {
		names = append(names, name)
	}
	sort.Strings(names)
	e.u64(uint64(len(names)))
	for _, name := range names {
		e.str(name)
		e.bytes(s.Sections[name])
	}

	payload := e.buf
	out := make([]byte, 0, headerLen+len(payload)+trailerLen)
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint32(out, Version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	out = binary.LittleEndian.AppendUint64(out, crc64.Checksum(out, crcTable))
	return out
}

// Decode parses and fully validates a snapshot produced by Encode.
// Truncated, bit-flipped or trailing-garbage input fails with
// ErrCorrupt; a valid envelope of another format version fails with
// ErrVersion.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < headerLen+trailerLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the envelope", ErrCorrupt, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	version := binary.LittleEndian.Uint32(data[len(magic):])
	payloadLen := binary.LittleEndian.Uint64(data[len(magic)+4:])
	if payloadLen > maxPayload || int(payloadLen) != len(data)-headerLen-trailerLen {
		return nil, fmt.Errorf("%w: payload length %d inconsistent with file size %d", ErrCorrupt, payloadLen, len(data))
	}
	body := data[:len(data)-trailerLen]
	want := binary.LittleEndian.Uint64(data[len(data)-trailerLen:])
	if got := crc64.Checksum(body, crcTable); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (got %016x, want %016x)", ErrCorrupt, got, want)
	}
	// Only after integrity is proven: interpret the version and fields.
	if version != Version {
		return nil, fmt.Errorf("%w: version %d, this build reads %d", ErrVersion, version, Version)
	}

	d := &dec{buf: data[headerLen : len(data)-trailerLen]}
	s := &Snapshot{}
	s.Fingerprint.App = d.str()
	s.Fingerprint.Backend = d.str()
	s.Fingerprint.Seed = d.u64()
	s.Fingerprint.Iterations = int(d.u64())
	s.Fingerprint.BurnIn = int(d.u64())
	s.Fingerprint.Compile = d.bool()
	s.Fingerprint.AnnealStartT = d.f64()
	s.Fingerprint.AnnealRate = d.f64()
	s.Fingerprint.Tag = d.str()
	s.Sweep = int(d.u64())
	s.W = int(d.u64())
	s.H = int(d.u64())
	s.M = int(d.u64())
	sites, ok := img.Area(s.W, s.H, maxSites)
	if d.bad || !ok {
		return nil, fmt.Errorf("%w: implausible geometry", ErrCorrupt)
	}
	s.Labels = append([]uint8(nil), d.take(sites)...)
	for i := range s.Chain {
		s.Chain[i] = d.u64()
	}
	nRows := d.u64()
	if nRows > uint64(s.H) {
		return nil, fmt.Errorf("%w: %d row streams for %d rows", ErrCorrupt, nRows, s.H)
	}
	if nRows > 0 {
		s.Rows = make([][4]uint64, nRows)
		for i := range s.Rows {
			for j := range s.Rows[i] {
				s.Rows[i][j] = d.u64()
			}
		}
	}
	nCounts := d.u64()
	if nCounts > maxPayload/4 {
		return nil, fmt.Errorf("%w: implausible counter block", ErrCorrupt)
	}
	if nCounts > 0 {
		s.Counts = make([]uint32, nCounts)
		for i := range s.Counts {
			s.Counts[i] = d.u32()
		}
	}
	nEnergy := d.u64()
	if nEnergy > maxPayload/8 {
		return nil, fmt.Errorf("%w: implausible energy trace", ErrCorrupt)
	}
	if nEnergy > 0 {
		s.Energy = make([]float64, nEnergy)
		for i := range s.Energy {
			s.Energy[i] = d.f64()
		}
	}
	nSections := d.u64()
	if nSections > 1024 {
		return nil, fmt.Errorf("%w: implausible section count %d", ErrCorrupt, nSections)
	}
	for i := uint64(0); i < nSections; i++ {
		name := d.str()
		blob := d.blob()
		if d.bad {
			break
		}
		s.SetSection(name, blob)
	}
	if d.bad {
		return nil, fmt.Errorf("%w: payload truncated mid-field", ErrCorrupt)
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(d.buf)-d.off)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
