package img

import (
	"bytes"
	"testing"
)

// FuzzDecodePGM hardens the parser: arbitrary bytes must either decode
// into a structurally valid image or return an error — never panic, and
// never produce an image whose pixel buffer disagrees with its header.
func FuzzDecodePGM(f *testing.F) {
	f.Add([]byte("P5\n2 2\n255\nabcd"))
	f.Add([]byte("P2\n# c\n1 2\n15\n0 15\n"))
	f.Add([]byte("P5\n0 0\n255\n"))
	f.Add([]byte("P6\n1 1\n255\nxyz"))
	f.Add([]byte(""))
	f.Add([]byte("P5\n1000000 1000000\n255\n"))
	f.Add([]byte("P5 4294967296 4294967296 255\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodePGM(bytes.NewReader(data))
		if err != nil {
			return
		}
		if g.W <= 0 || g.H <= 0 || len(g.Pix) != g.W*g.H {
			t.Fatalf("decoded image inconsistent: %dx%d with %d pixels", g.W, g.H, len(g.Pix))
		}
		// Round trip: re-encoding a decoded image must succeed and
		// decode back identical.
		var buf bytes.Buffer
		if err := EncodePGM(&buf, g); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		g2, err := DecodePGM(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !g.Equal(g2) {
			t.Fatal("round trip mismatch")
		}
	})
}

// TestDecodePGMRejectsWrappingSize: headers whose pixel count wraps an
// int (to 0 in 64 bits, negative in 32) are rejected, not decoded into
// a 0-pixel image or a makeslice panic.
func TestDecodePGMRejectsWrappingSize(t *testing.T) {
	for _, hdr := range []string{
		"P5 4294967296 4294967296 255\n",
		"P5\n1000000 1000000\n255\n",
		"P2 65536 65536 255\n",
	} {
		if g, err := DecodePGM(bytes.NewReader([]byte(hdr))); err == nil {
			t.Fatalf("%q decoded to a %dx%d image with %d pixels", hdr, g.W, g.H, len(g.Pix))
		}
	}
}

// TestArea: the division-based size check accepts exactly the
// products within the limit and never wraps.
func TestArea(t *testing.T) {
	maxInt := int(^uint(0) >> 1)
	for _, c := range []struct {
		w, h, limit, n int
		ok             bool
	}{
		{3, 5, 15, 15, true},
		{3, 5, 14, 0, false},
		{0, 5, 100, 0, false},
		{5, -1, 100, 0, false},
		{1 << 16, 1 << 16, 1 << 28, 0, false},
		{maxInt, 2, maxInt, 0, false},
		{maxInt, 1, maxInt, maxInt, true},
	} {
		if n, ok := Area(c.w, c.h, c.limit); n != c.n || ok != c.ok {
			t.Fatalf("Area(%d, %d, %d) = %d, %v; want %d, %v", c.w, c.h, c.limit, n, ok, c.n, c.ok)
		}
	}
}
