package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file is the streaming half of the snapshot format: encode to /
// decode from an io stream (the replication layer moves snapshots over
// HTTP request bodies), plus an offset-resumable chunk reader so an
// interrupted transfer continues from the bytes the receiver already
// holds instead of restarting. The on-wire bytes are exactly the Encode
// bytes — same envelope, same CRC — so a receiver reassembling chunks
// validates the finished file with the ordinary Decode path.

// EncodeTo writes the snapshot's canonical encoding to w and returns
// the byte count written.
func EncodeTo(w io.Writer, s *Snapshot) (int64, error) {
	data, err := Encode(s)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(data)
	return int64(n), err
}

// DecodeFrom reads exactly one encoded snapshot from r: the fixed
// envelope header first (which bounds the payload read against corrupt
// or hostile length fields), then the payload and checksum trailer, and
// then the ordinary Decode validation over the assembled bytes. Short
// or damaged streams fail with ErrCorrupt.
func DecodeFrom(r io.Reader) (*Snapshot, error) {
	header := make([]byte, headerLen)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("%w: stream header: %v", ErrCorrupt, err)
	}
	if string(header[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	payloadLen := binary.LittleEndian.Uint64(header[len(magic)+4:])
	if payloadLen > maxPayload {
		return nil, fmt.Errorf("%w: payload length %d exceeds limit", ErrCorrupt, payloadLen)
	}
	data := make([]byte, headerLen+int(payloadLen)+trailerLen)
	copy(data, header)
	if _, err := io.ReadFull(r, data[headerLen:]); err != nil {
		return nil, fmt.Errorf("%w: stream body: %v", ErrCorrupt, err)
	}
	return Decode(data)
}

// StreamReader serves one encoded snapshot in chunks from arbitrary
// byte offsets — the sender side of offset-resumable replication. The
// content checksum in the trailer doubles as a generation identifier,
// so both ends can tell whether a partially transferred file and a
// resumed transfer refer to the same snapshot.
//
// Slots are overwritten in place while the chain runs, so an open file
// handle would not pin a generation. OpenStream instead reads the
// newest valid slot into memory after the full Decode check, and the
// reader serves that copy: one complete, self-consistent snapshot even
// while newer ones land at the same path.
type StreamReader struct {
	data []byte
	crc  uint64
}

// openAttempts bounds OpenStream's re-reads when every present slot
// fails its checks: a Writer overwriting slots in place can tear a
// concurrent read of each slot in turn, and a re-read then finds a
// complete one.
const openAttempts = 3

// OpenStream loads the newest valid slot of the snapshot at path for
// chunked reading. A missing snapshot surfaces the os.ErrNotExist error
// unwrapped; one whose every slot is damaged fails with ErrCorrupt.
func OpenStream(path string) (*StreamReader, error) {
	var err error
	for attempt := 0; attempt < openAttempts; attempt++ {
		var data []byte
		if _, data, err = newest(path); err == nil {
			return &StreamReader{data: data, crc: binary.LittleEndian.Uint64(data[len(data)-trailerLen:])}, nil
		}
		if !errors.Is(err, ErrCorrupt) {
			break
		}
	}
	return nil, err
}

// Size returns the total encoded size in bytes.
func (r *StreamReader) Size() int64 { return int64(len(r.data)) }

// CRC returns the snapshot's trailer checksum — a content fingerprint
// that identifies this snapshot generation across transfer attempts.
func (r *StreamReader) CRC() uint64 { return r.crc }

// ReadChunk fills buf from byte offset off, returning the count read.
// Reading at or past Size returns (0, io.EOF); a read that reaches the
// end returns the final bytes with a nil error.
func (r *StreamReader) ReadChunk(off int64, buf []byte) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("checkpoint: negative chunk offset %d", off)
	}
	if off >= r.Size() {
		return 0, io.EOF
	}
	return copy(buf, r.data[off:]), nil
}
