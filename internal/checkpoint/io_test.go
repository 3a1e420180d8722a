package checkpoint

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// chainSnapshot is testSnapshot at a given sweep, with one energy entry
// per completed sweep, so later snapshots encode longer as they do in a
// real chain.
func chainSnapshot(sweep int) *Snapshot {
	s := testSnapshot()
	s.Sweep = sweep
	s.Labels[sweep%len(s.Labels)] = uint8(sweep % s.M)
	s.Energy = make([]float64, sweep)
	for i := range s.Energy {
		s.Energy[i] = -float64(i)
	}
	return s
}

func mustEncode(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	data, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// loadEncoded loads path and returns the winning snapshot re-encoded,
// for byte comparison against what was saved.
func loadEncoded(t *testing.T, path string) []byte {
	t.Helper()
	s, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return mustEncode(t, s)
}

// TestWriterAlternatesSlotsInPlace: a Writer's saves land in slot 0,
// slot 1, slot 0, ... with slot 0 keeping its inode after the first
// save (overwritten, never replaced), Load always returns the last
// save, and a shorter encoding truncates the slot it overwrites.
func TestWriterAlternatesSlotsInPlace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.ckpt")
	w := NewWriter(path)
	defer w.Close()

	var ino0 os.FileInfo
	sweeps := []int{1, 2, 3, 4, 5, 6}
	for i, sweep := range sweeps {
		s := chainSnapshot(sweep)
		if i == len(sweeps)-1 {
			s.Energy = nil // shorter than both slots' current contents
		}
		if err := w.Save(s); err != nil {
			t.Fatal(err)
		}
		want := mustEncode(t, s)
		if got := loadEncoded(t, path); !bytes.Equal(got, want) {
			t.Fatalf("save %d: Load did not return the last saved snapshot", sweep)
		}
		onDisk, err := os.ReadFile(slotPath(path, i%2))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk, want) {
			t.Fatalf("save %d: slot %d does not hold the Encode bytes", sweep, i%2)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if ino0 == nil {
			ino0 = fi
		} else if !os.SameFile(ino0, fi) {
			t.Fatalf("save %d: slot 0 was replaced, not overwritten in place", sweep)
		}
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

// TestTornOverwriteLoadsPrevious enumerates every cut point of the
// slot a Writer overwrites next: the new encoding cut at each byte,
// either truncated there, followed by the old slot's remaining bytes
// (an in-place write that stopped part way), or followed by garbage.
// Load must return the previous complete snapshot every time.
func TestTornOverwriteLoadsPrevious(t *testing.T) {
	for _, saved := range []int{3, 4} { // next save overwrites slot 1, then slot 0
		path := filepath.Join(t.TempDir(), "chain.ckpt")
		w := NewWriter(path)
		for sweep := 1; sweep <= saved; sweep++ {
			if err := w.Save(chainSnapshot(sweep)); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()
		prev := mustEncode(t, chainSnapshot(saved))
		next := mustEncode(t, chainSnapshot(saved+1))
		target := slotPath(path, saved%2)
		old, err := os.ReadFile(target)
		if err != nil {
			t.Fatal(err)
		}

		for cut := 0; cut < len(next); cut++ {
			torn := map[string][]byte{
				"truncated": next[:cut],
				"old tail":  append(append([]byte(nil), next[:cut]...), old[min(cut, len(old)):]...),
				"garbage":   append(append([]byte(nil), next[:cut]...), bytes.Repeat([]byte{0xA5}, len(next)-cut)...),
			}
			for kind, body := range torn {
				if err := os.WriteFile(target, body, 0o644); err != nil {
					t.Fatal(err)
				}
				if got := loadEncoded(t, path); !bytes.Equal(got, prev) {
					t.Fatalf("after %d saves, cut %d (%s): Load did not return sweep %d", saved, cut, kind, saved)
				}
			}
		}
	}
}

// TestWriterFirstSaveOutranksStaleSlot: a stale slot 1 from an earlier
// chain, with a higher Sweep and another fingerprint, must not survive
// a fresh Writer's first save.
func TestWriterFirstSaveOutranksStaleSlot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.ckpt")
	stale := chainSnapshot(99)
	stale.Fingerprint.Seed = 12345
	if err := os.WriteFile(slotPath(path, 1), mustEncode(t, stale), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := chainSnapshot(2)
	w := NewWriter(path)
	defer w.Close()
	if err := w.Save(fresh); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sweep != 2 || got.Fingerprint != fresh.Fingerprint {
		t.Fatalf("Load returned sweep %d fingerprint %+v, want the fresh chain's sweep 2", got.Sweep, got.Fingerprint)
	}
	if _, err := os.Stat(slotPath(path, 1)); !os.IsNotExist(err) {
		t.Fatalf("stale slot 1 survived the first save: %v", err)
	}
}

// TestLoadMissingAndDamagedSlots: no slot is IsNotExist; every present
// slot damaged is ErrCorrupt; one damaged slot falls back to the other;
// Remove deletes both.
func TestLoadMissingAndDamagedSlots(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.ckpt")
	if _, err := Load(path); !os.IsNotExist(err) {
		t.Fatalf("no slots: got %v, want IsNotExist", err)
	}
	if _, err := OpenStream(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("no slots: OpenStream got %v, want os.ErrNotExist", err)
	}

	w := NewWriter(path)
	for sweep := 1; sweep <= 2; sweep++ {
		if err := w.Save(chainSnapshot(sweep)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	garbage := []byte("RSUGCKPTgarbage")
	if err := os.WriteFile(slotPath(path, 1), garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Load(path); err != nil || s.Sweep != 1 {
		t.Fatalf("newest slot damaged: got %v, %v; want sweep 1", s, err)
	}
	if err := os.WriteFile(path, garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("both slots damaged: got %v, want ErrCorrupt", err)
	}
	if _, err := OpenStream(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("both slots damaged: OpenStream got %v, want ErrCorrupt", err)
	}

	if err := Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); !os.IsNotExist(err) {
		t.Fatalf("after Remove: got %v, want IsNotExist", err)
	}
	if err := Remove(path); err != nil {
		t.Fatalf("Remove of a missing snapshot: %v", err)
	}
}
