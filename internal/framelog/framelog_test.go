package framelog

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// corruptLength is a frame whose uvarint length prefix is 2^64-3: adding
// the 14 header bytes to it wraps around to 11, which once passed an
// unsigned bounds check and panicked on the slice.
var corruptLength = append(binary.AppendUvarint(nil, math.MaxUint64-2), 0, 0, 0, 0)

// sampleLog is a three-frame log: a header string and two records.
func sampleLog(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, v := range []any{"header", []byte("record one"), []byte("record two")} {
		if err := Append(&buf, v); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestFrameGolden pins the encoding of one frame. The payload is a gob
// string, a predeclared type, so its bytes do not depend on the gob type
// ids a process has handed out.
func TestFrameGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := Append(&buf, "dragonvar"); err != nil {
		t.Fatal(err)
	}
	// 0d = length 13 | 29f7c077 = crc32c, little-endian | gob payload
	const want = "0d" + "29f7c077" + "0c0c0009647261676f6e766172"
	if got := hex.EncodeToString(buf.Bytes()); got != want {
		t.Fatalf("frame = %s, want %s", got, want)
	}
}

func TestParseStopsAtDamage(t *testing.T) {
	raw := sampleLog(t)
	frames, valid := Parse(raw)
	if len(frames) != 3 || valid != len(raw) {
		t.Fatalf("intact log: %d frames, valid %d of %d", len(frames), valid, len(raw))
	}
	second := twoFrames(raw)
	flipped := bytes.Clone(raw)
	flipped[len(flipped)-2] ^= 0xff
	for _, tc := range []struct {
		name   string
		raw    []byte
		frames int
		valid  int
	}{
		{"truncated", raw[:len(raw)-3], 2, second},
		{"flipped payload byte", flipped, 2, second},
		{"corrupt length", append(bytes.Clone(raw), corruptLength...), 3, len(raw)},
		{"corrupt length alone", corruptLength, 0, 0},
		{"empty", nil, 0, 0},
	} {
		frames, valid := Parse(tc.raw)
		if len(frames) != tc.frames || valid != tc.valid {
			t.Errorf("%s: %d frames, valid %d; want %d, %d", tc.name, len(frames), valid, tc.frames, tc.valid)
		}
	}
}

func TestOpenCreatesHealsAndAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	lg, frames, err := Open(path, "header")
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 {
		t.Fatalf("fresh log: %d frames, want the header only", len(frames))
	}
	if err := lg.Append([]byte("record one")); err != nil {
		t.Fatal(err)
	}
	if err := lg.Append([]byte("record two")); err != nil {
		t.Fatal(err)
	}
	lg.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, sampleLog(t)) {
		t.Fatal("Log.Append wrote different bytes than Append")
	}

	// A torn tail is cut off on open, and appends continue after it.
	if err := os.WriteFile(path, append(bytes.Clone(raw[:len(raw)-3]), corruptLength...), 0o644); err != nil {
		t.Fatal(err)
	}
	lg, frames, err = Open(path, "unused")
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 2 {
		t.Fatalf("healed log: %d frames, want 2", len(frames))
	}
	if err := lg.Append([]byte("record two")); err != nil {
		t.Fatal(err)
	}
	lg.Close()
	if healed, _ := os.ReadFile(path); !bytes.Equal(healed, raw) {
		t.Fatal("heal + append did not restore the original bytes")
	}

	// Rewrite replaces the contents and keeps the log appendable.
	lg, _, err = Open(path, "unused")
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Rewrite(raw[:twoFrames(raw)]); err != nil {
		t.Fatal(err)
	}
	if err := lg.Append([]byte("record two")); err != nil {
		t.Fatal(err)
	}
	lg.Close()
	if got, _ := os.ReadFile(path); !bytes.Equal(got, raw) {
		t.Fatal("rewrite + append did not give the original bytes")
	}
}

// twoFrames returns the byte length of the first two frames of a
// three-frame log.
func twoFrames(raw []byte) int {
	_, valid := Parse(raw[:len(raw)-1])
	return valid
}

func TestOpenWithoutHeaderLeavesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, corruptLength, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path, "header"); !errors.Is(err, ErrNoHeader) {
		t.Fatalf("Open = %v, want ErrNoHeader", err)
	}
	if raw, _ := os.ReadFile(path); !bytes.Equal(raw, corruptLength) {
		t.Fatal("Open changed a file it refused")
	}
}

func TestWriteFileAtomicLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	for _, data := range []string{"first", "second"} {
		if err := WriteFileAtomic(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); string(got) != data {
			t.Fatalf("contents %q, want %q", got, data)
		}
	}
	if err := WriteFileAtomic(filepath.Join(dir, "missing", "f"), nil); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want only the file", len(entries))
	}
}

// FuzzParse checks Parse on arbitrary bytes: it never panics, its valid
// prefix parses to the same frames, and a frame appended to that prefix
// comes back intact.
func FuzzParse(f *testing.F) {
	raw := sampleLog(f)
	f.Add(raw)
	f.Add(raw[:len(raw)-2])
	f.Add(raw[:len(raw)-3])
	f.Add(append(bytes.Clone(raw), corruptLength...))
	f.Add(corruptLength)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		frames, valid := Parse(raw)
		if valid < 0 || valid > len(raw) {
			t.Fatalf("valid = %d, len %d", valid, len(raw))
		}
		again, validAgain := Parse(raw[:valid])
		if validAgain != valid || !reflect.DeepEqual(again, frames) {
			t.Fatalf("valid prefix reparses to %d frames / %d bytes, want %d / %d",
				len(again), validAgain, len(frames), valid)
		}
		buf := bytes.NewBuffer(bytes.Clone(raw[:valid]))
		if err := Append(buf, raw); err != nil {
			t.Fatal(err)
		}
		grown, _ := Parse(buf.Bytes())
		if len(grown) != len(frames)+1 {
			t.Fatalf("append: %d frames, want %d", len(grown), len(frames)+1)
		}
		var back []byte
		if err := Decode(grown[len(frames)], &back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, raw) {
			t.Fatal("appended frame did not round-trip")
		}
	})
}
