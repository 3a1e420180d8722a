package checkpoint

import (
	"bytes"
	"errors"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestEncodeToDecodeFromRoundTrip(t *testing.T) {
	s := testSnapshot()
	var buf bytes.Buffer
	n, err := EncodeTo(&buf, s)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("EncodeTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := DecodeFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	round, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, round) {
		t.Fatal("DecodeFrom(EncodeTo(s)) not byte-identical to s")
	}
}

func TestDecodeFromRejectsTruncation(t *testing.T) {
	data, err := Encode(testSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, headerLen - 1, headerLen + 3, len(data) - 1} {
		_, err := DecodeFrom(bytes.NewReader(data[:cut]))
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("cut at %d: err %v, want ErrCorrupt", cut, err)
		}
	}
}

func TestOpenStreamValidatesAndChunks(t *testing.T) {
	data, err := Encode(testSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s.ckpt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	sr, err := OpenStream(path)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Size() != int64(len(data)) {
		t.Fatalf("Size %d, want %d", sr.Size(), len(data))
	}
	// The trailer CRC doubles as the replication generation ID.
	wantCRC := crc64.Checksum(data[:len(data)-trailerLen], crc64.MakeTable(crc64.ECMA))
	if sr.CRC() != wantCRC {
		t.Fatalf("CRC %x, want %x", sr.CRC(), wantCRC)
	}
	// Reassemble through uneven chunk reads.
	var assembled []byte
	buf := make([]byte, 7)
	for off := int64(0); ; {
		n, err := sr.ReadChunk(off, buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		assembled = append(assembled, buf[:n]...)
		off += int64(n)
	}
	if !bytes.Equal(assembled, data) {
		t.Fatal("chunked reassembly differs from the file")
	}
}

func TestOpenStreamRejectsDamage(t *testing.T) {
	data, err := Encode(testSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cases := map[string][]byte{
		"short.ckpt": data[:headerLen-2],
		"magic.ckpt": append([]byte("WRONGMAG"), data[8:]...),
		"len.ckpt":   data[:len(data)-3], // payloadLen no longer matches size
	}
	for name, body := range cases {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, body, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenStream(p); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err %v, want ErrCorrupt", name, err)
		}
	}
	if _, err := OpenStream(filepath.Join(dir, "absent.ckpt")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: err %v, want os.ErrNotExist", err)
	}
}
