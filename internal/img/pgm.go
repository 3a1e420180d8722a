package img

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// EncodePGM writes g in binary PGM (P5) format.
func EncodePGM(w io.Writer, g *Gray) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P5\n%d %d\n255\n", g.W, g.H); err != nil {
		return err
	}
	if _, err := bw.Write(g.Pix); err != nil {
		return err
	}
	return bw.Flush()
}

// DecodePGM reads a binary (P5) or ASCII (P2) PGM image.
func DecodePGM(r io.Reader) (*Gray, error) {
	br := bufio.NewReader(r)
	magic, err := pgmToken(br)
	if err != nil {
		return nil, fmt.Errorf("img: reading PGM magic: %w", err)
	}
	if magic != "P5" && magic != "P2" {
		return nil, fmt.Errorf("img: unsupported PGM magic %q", magic)
	}
	var w, h, maxv int
	for _, dst := range []*int{&w, &h, &maxv} {
		tok, err := pgmToken(br)
		if err != nil {
			return nil, fmt.Errorf("img: reading PGM header: %w", err)
		}
		if _, err := fmt.Sscanf(tok, "%d", dst); err != nil {
			return nil, fmt.Errorf("img: bad PGM header token %q", tok)
		}
	}
	if _, ok := Area(w, h, 1<<28); !ok {
		return nil, fmt.Errorf("img: unreasonable PGM dimensions %dx%d", w, h)
	}
	if maxv <= 0 || maxv > 255 {
		return nil, fmt.Errorf("img: unsupported PGM maxval %d", maxv)
	}
	g := NewGray(w, h)
	if magic == "P5" {
		if _, err := io.ReadFull(br, g.Pix); err != nil {
			return nil, fmt.Errorf("img: reading PGM pixels: %w", err)
		}
	} else {
		for i := range g.Pix {
			tok, err := pgmToken(br)
			if err != nil {
				return nil, fmt.Errorf("img: reading PGM pixel %d: %w", i, err)
			}
			var v int
			if _, err := fmt.Sscanf(tok, "%d", &v); err != nil || v < 0 || v > maxv {
				return nil, fmt.Errorf("img: bad PGM pixel token %q", tok)
			}
			g.Pix[i] = uint8(v)
		}
	}
	if maxv != 255 {
		for i, p := range g.Pix {
			g.Pix[i] = uint8(int(p) * 255 / maxv)
		}
	}
	return g, nil
}

// pgmToken reads the next whitespace-delimited token, skipping
// '#'-comments per the PGM spec.
func pgmToken(br *bufio.Reader) (string, error) {
	tok := make([]byte, 0, 8)
	for {
		b, err := br.ReadByte()
		if err != nil {
			if err == io.EOF && len(tok) > 0 {
				return string(tok), nil
			}
			return "", err
		}
		switch {
		case b == '#' && len(tok) == 0:
			if _, err := br.ReadString('\n'); err != nil && err != io.EOF {
				return "", err
			}
		case b == ' ' || b == '\t' || b == '\n' || b == '\r':
			if len(tok) > 0 {
				return string(tok), nil
			}
		default:
			tok = append(tok, b)
		}
	}
}

// WritePGMFile writes g to path in binary PGM format.
func WritePGMFile(path string, g *Gray) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := EncodePGM(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadPGMFile reads a PGM image from path.
func ReadPGMFile(path string) (*Gray, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodePGM(f)
}
