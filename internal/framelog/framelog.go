// Package framelog is the one implementation of the repository's
// crash-safe record files: the dataset stream's write-ahead log and
// sealed segments, the daemon checkpoint, and the dist coordinator's
// checkpoint.
//
// # Format
//
// A file is a sequence of frames, each
//
//	uvarint payload length | crc32c(payload), 4 bytes little-endian | payload
//
// where the checksum uses the Castagnoli polynomial and the payload is
// one self-contained gob stream (a fresh encoder per frame, so every
// frame decodes on its own). A log's first frame is its header; what the
// header and the records hold, and what a damaged one means, is the
// caller's policy.
//
// # Crash safety
//
// Appends are fsynced, so a crash can only leave a torn or corrupt tail
// behind the last whole frame. Parse stops at the first frame whose
// length overruns the input or whose checksum fails, and Open heals such
// a tail by atomically rewriting the valid prefix. Whole-file writes go
// through WriteFileAtomic (temp file, fsync, rename), so a reader sees
// either the old contents or the new, never a mix.
package framelog

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrNoHeader reports a log file that exists but holds no whole frame.
// Open leaves such a file as it found it.
var ErrNoHeader = errors.New("framelog: no intact header frame")

// Append gob-encodes v and appends it to buf as one frame.
func Append(buf *bytes.Buffer, v any) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return fmt.Errorf("framelog: encode: %w", err)
	}
	var hdr [binary.MaxVarintLen64 + 4]byte
	n := binary.PutUvarint(hdr[:], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(hdr[n:], crc32.Checksum(payload.Bytes(), crcTable))
	buf.Write(hdr[:n+4])
	buf.Write(payload.Bytes())
	return nil
}

// Decode gob-decodes one frame payload into v.
func Decode(payload []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(payload)).Decode(v)
}

// Parse splits raw into the payloads of its whole, checksum-valid frames
// and returns the byte length of the prefix they cover. A truncated or
// corrupt frame ends the parse; everything from it on is the torn tail.
func Parse(raw []byte) (frames [][]byte, valid int) {
	for valid < len(raw) {
		plen, n := binary.Uvarint(raw[valid:])
		rest := len(raw) - valid - n
		if n <= 0 || rest < 4 || plen > uint64(rest-4) {
			break
		}
		body := raw[valid+n:]
		payload := body[4 : 4+plen]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(body) {
			break
		}
		frames = append(frames, payload)
		valid += n + 4 + int(plen)
	}
	return frames, valid
}

// WriteFileAtomic replaces path with data through a temp file in the same
// directory: write, fsync, close, rename. On any error the temp file is
// removed and path is left as it was.
func WriteFileAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// Log is a frame file open for appending. Not safe for concurrent use.
type Log struct {
	f *os.File
}

// Open opens the frame log at path for appending. A missing file is
// created holding the single frame header. Otherwise Open returns the
// payloads of the file's whole frames, the header first, and cuts off a
// torn tail by rewriting the valid prefix. A file with no whole frame is
// an error wrapping ErrNoHeader.
func Open(path string, header any) (*Log, [][]byte, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		var buf bytes.Buffer
		if err := Append(&buf, header); err != nil {
			return nil, nil, err
		}
		if err := WriteFileAtomic(path, buf.Bytes()); err != nil {
			return nil, nil, fmt.Errorf("framelog: create %s: %w", path, err)
		}
		raw = buf.Bytes()
	} else if err != nil {
		return nil, nil, fmt.Errorf("framelog: %w", err)
	}
	frames, valid := Parse(raw)
	if len(frames) == 0 {
		return nil, nil, fmt.Errorf("%w in %s", ErrNoHeader, path)
	}
	if valid < len(raw) {
		if err := WriteFileAtomic(path, raw[:valid]); err != nil {
			return nil, nil, fmt.Errorf("framelog: heal %s: %w", path, err)
		}
	}
	l := &Log{}
	if err := l.reopen(path); err != nil {
		return nil, nil, err
	}
	return l, frames, nil
}

func (l *Log) reopen(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("framelog: %w", err)
	}
	l.f = f
	return nil
}

// Append writes v as one frame and fsyncs. Once it returns, a reopen
// sees the record.
func (l *Log) Append(v any) error {
	var buf bytes.Buffer
	if err := Append(&buf, v); err != nil {
		return err
	}
	if _, err := l.f.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("framelog: append: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("framelog: sync: %w", err)
	}
	return nil
}

// Rewrite atomically replaces the log's contents with data, which must
// be whole frames starting with a header, and keeps appending after it.
func (l *Log) Rewrite(data []byte) error {
	path := l.f.Name()
	l.f.Close()
	if err := WriteFileAtomic(path, data); err != nil {
		return fmt.Errorf("framelog: rewrite %s: %w", path, err)
	}
	return l.reopen(path)
}

// Close closes the log file; the file stays for a later Open.
func (l *Log) Close() error {
	return l.f.Close()
}
