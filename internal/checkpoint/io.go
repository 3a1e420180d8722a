package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// A chain's snapshot lives in two slot files: slot 0 at path and slot 1
// at path+".1". A Writer alternates between them, overwriting the older
// slot in place, so a save costs one write and one fsync instead of a
// create + fsync + rename + directory fsync. A crash mid-overwrite tears
// at most the slot being written; the other slot still holds the
// previous complete snapshot, and the CRC trailer tells the two apart.
// Readers take the valid slot with the higher Sweep.

// slotPath names slot i of the snapshot at path.
func slotPath(path string, slot int) string {
	if slot == 0 {
		return path
	}
	return path + ".1"
}

// WriteFileAtomic durably replaces path with data: write a temp sibling,
// fsync it, rename it over path, then fsync the directory. A crash at
// any instant leaves either the old or the new complete file at path;
// the worst residue is a stale .tmp sibling, which the next call
// truncates and replaces.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// syncDir persists directory entries (creates, renames, removes).
// Best-effort: some filesystems refuse directory fsync, and the entry
// operations are already atomic with respect to readers either way.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// Install makes an encoded snapshot the only one at path: it atomically
// replaces slot 0, then removes slot 1 and fsyncs the directory, so a
// stale slot left by an earlier chain or attempt can never outrank it.
// It is a Writer's first save, and how a replicated snapshot lands.
func Install(path string, encoded []byte) error {
	if err := WriteFileAtomic(path, encoded); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	switch err := os.Remove(slotPath(path, 1)); {
	case err == nil:
		syncDir(filepath.Dir(path))
	case !errors.Is(err, os.ErrNotExist):
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// Remove deletes both slots of the snapshot at path. Missing slots are
// not an error.
func Remove(path string) error {
	for slot := 0; slot < 2; slot++ {
		if err := os.Remove(slotPath(path, slot)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	return nil
}

// Writer persists the successive snapshots of one chain at path. Its
// first save is Install; every later save overwrites the slot not
// written last, truncates it if the new encoding is shorter, and fsyncs
// it, so once Save returns the snapshot survives a crash, and a crash
// at any instant leaves the previous complete snapshot or the new one.
// A Writer is not safe for concurrent use; readers in other goroutines
// or processes go through Load and OpenStream.
type Writer struct {
	path string
	f    [2]*os.File
	size [2]int64 // current length of each open slot file
	last int      // slot written by the previous save; -1 before the first
}

// NewWriter returns a Writer for the snapshot at path. No file is
// touched until the first Save.
func NewWriter(path string) *Writer { return &Writer{path: path, last: -1} }

// Save durably writes s to the older slot.
func (w *Writer) Save(s *Snapshot) error {
	data, err := Encode(s)
	if err != nil {
		return err
	}
	if w.last < 0 {
		if err := Install(w.path, data); err != nil {
			return err
		}
		w.last, w.size[0] = 0, int64(len(data))
		return nil
	}
	slot := 1 - w.last
	if err := w.overwrite(slot, data); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	w.last = slot
	return nil
}

// overwrite replaces the contents of one slot in place. A failed write
// leaves that slot torn and w.last unchanged, so the next save targets
// the same slot again while the other one keeps the last good snapshot.
func (w *Writer) overwrite(slot int, data []byte) error {
	f := w.f[slot]
	if f == nil {
		// Slot 0 exists since Install and its entry is already durable.
		// Slot 1 was removed by Install, so opening it creates it, and
		// the new directory entry needs one fsync of its own.
		var err error
		if slot == 0 {
			f, err = os.OpenFile(w.path, os.O_WRONLY, 0)
		} else {
			f, err = os.OpenFile(slotPath(w.path, 1), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		}
		if err != nil {
			return err
		}
		if slot == 1 {
			syncDir(filepath.Dir(w.path))
		}
		w.f[slot] = f
	}
	n := int64(len(data))
	_, err := f.WriteAt(data, 0)
	w.size[slot] = max(w.size[slot], n) // a write, even a torn one, never shrinks the file
	if err != nil {
		return err
	}
	if n < w.size[slot] {
		if err := f.Truncate(n); err != nil {
			return err
		}
		w.size[slot] = n
	}
	return f.Sync()
}

// Close releases the slot files. The snapshots stay on disk.
func (w *Writer) Close() error {
	var first error
	for i, f := range w.f {
		if f != nil {
			if err := f.Close(); err != nil && first == nil {
				first = fmt.Errorf("checkpoint: %w", err)
			}
			w.f[i] = nil
		}
	}
	return first
}

// Save writes one snapshot to path as a one-shot Writer: the snapshot
// replaces every slot's contents atomically (see Install).
func Save(path string, s *Snapshot) error {
	w := NewWriter(path)
	defer w.Close() // Install holds no open slot file
	return w.Save(s)
}

// Load reads both slots of the snapshot at path and returns the valid
// one with the higher Sweep. The error distinguishes a missing snapshot
// (os.IsNotExist: neither slot exists), a damaged one (ErrCorrupt:
// every present slot failed its checks), and a format-version skew
// (ErrVersion).
func Load(path string) (*Snapshot, error) {
	s, _, err := newest(path)
	return s, err
}

// newest decodes both slots of path through Decode and returns the
// valid snapshot with the higher Sweep, with its encoding. With no
// valid slot it returns slot 0's missing-file error when neither slot
// exists, else the first slot's read or decode error.
func newest(path string) (*Snapshot, []byte, error) {
	var (
		best              *Snapshot
		bestData          []byte
		missing, firstErr error
	)
	for slot := 0; slot < 2; slot++ {
		p := slotPath(path, slot)
		data, err := os.ReadFile(p)
		if errors.Is(err, os.ErrNotExist) {
			if missing == nil {
				missing = err
			}
			continue
		}
		var s *Snapshot
		if err == nil {
			s, err = Decode(data)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", p, err)
			}
			continue
		}
		if best == nil || s.Sweep > best.Sweep {
			best, bestData = s, data
		}
	}
	switch {
	case best != nil:
		return best, bestData, nil
	case firstErr != nil:
		return nil, nil, firstErr
	default:
		return nil, nil, missing
	}
}
