package dataset

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"dragonvar/internal/counters"
	"dragonvar/internal/framelog"
)

// streamRun builds one valid run for the named dataset. Runs of one
// dataset all get the same step count (Campaign.Validate requires it).
func streamRun(ds string, id int, start float64, steps int) *Run {
	r := &Run{Dataset: ds, RunID: id, Start: start, Day: int(start / 86400),
		NumRouters: 30, NumGroups: 5}
	for s := 0; s < steps; s++ {
		r.StepTimes = append(r.StepTimes, float64(10+s+id))
		r.Compute = append(r.Compute, 2)
		var c [counters.NumJob]float64
		c[0] = float64(100*(s+1) + id)
		r.Counters = append(r.Counters, c)
		r.IO = append(r.IO, [counters.NumLDMS]float64{float64(s), 0, 0, 0})
		r.Sys = append(r.Sys, [counters.NumLDMS]float64{0, float64(id), 0, 0})
	}
	return r
}

func streamMetaForTest(windowRuns int, span float64) StreamMeta {
	return StreamMeta{
		Seed: 7, Days: 3, Routing: "minimal", Placement: "firstfit",
		Datasets: []DatasetInfo{
			{Name: "A-128", App: "A", Nodes: 128},
			{Name: "B-256", App: "B", Nodes: 256},
		},
		WindowRuns: windowRuns, WindowSpan: span,
	}
}

// runSeq deterministically interleaves runs of the two datasets the way a
// campaign merge would: global order by index.
func runSeq(n int) []*Run {
	runs := make([]*Run, n)
	for i := range runs {
		ds := "A-128"
		if i%3 == 2 {
			ds = "B-256"
		}
		runs[i] = streamRun(ds, i, float64(i)*1000, 6)
	}
	return runs
}

func TestStreamSealReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	meta := streamMetaForTest(4, 0)
	w, err := OpenStream(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	runs := runSeq(10)
	var sealed int
	for _, r := range runs {
		segs, err := w.Append(r)
		if err != nil {
			t.Fatal(err)
		}
		sealed += len(segs)
	}
	if sealed != 2 || w.SealedSegments() != 2 || w.OpenRuns() != 2 || w.TotalRuns() != 10 {
		t.Fatalf("after 10 appends: sealed=%d segments=%d open=%d total=%d",
			sealed, w.SealedSegments(), w.OpenRuns(), w.TotalRuns())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: same counts, and the open window survives the WAL replay.
	w, err = OpenStream(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.SealedSegments() != 2 || w.OpenRuns() != 2 || w.TotalRuns() != 10 {
		t.Fatalf("after reopen: segments=%d open=%d total=%d",
			w.SealedSegments(), w.OpenRuns(), w.TotalRuns())
	}
	seg, err := w.Segment(1)
	if err != nil {
		t.Fatal(err)
	}
	if seg.Index != 1 || seg.FirstRun != 4 || len(seg.Runs) != 4 {
		t.Fatalf("segment 1: index=%d firstRun=%d runs=%d", seg.Index, seg.FirstRun, len(seg.Runs))
	}
	if seg.Runs[0].RunID != runs[4].RunID || seg.Runs[0].Start != runs[4].Start {
		t.Fatalf("segment 1 run 0 = %+v, want run 4", seg.Runs[0])
	}

	// Two more appends complete the third window.
	for i := 10; i < 12; i++ {
		if _, err := w.Append(streamRun("A-128", i, float64(i)*1000, 6)); err != nil {
			t.Fatal(err)
		}
	}
	if w.SealedSegments() != 3 || w.OpenRuns() != 0 {
		t.Fatalf("after 12 appends: segments=%d open=%d", w.SealedSegments(), w.OpenRuns())
	}

	camp, err := w.AssembleSealed()
	if err != nil {
		t.Fatal(err)
	}
	if camp.TotalRuns() != 12 {
		t.Fatalf("AssembleSealed runs = %d, want 12", camp.TotalRuns())
	}
	if camp.Seed != meta.Seed || camp.Routing != meta.Routing || camp.Placement != meta.Placement {
		t.Fatalf("assembled identity %d/%s/%s does not match meta", camp.Seed, camp.Routing, camp.Placement)
	}
}

func TestStreamIdentityRefused(t *testing.T) {
	dir := t.TempDir()
	meta := streamMetaForTest(4, 0)
	w, err := OpenStream(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	other := streamMetaForTest(8, 0) // different window bound = different stream
	if _, err := OpenStream(dir, other); err == nil {
		t.Fatal("reopening with a different identity succeeded, want refusal")
	}

	// Intact frames that carry a foreign digest shorter than the 12
	// characters an error message shows are refused, not quarantined.
	var seg bytes.Buffer
	if err := framelog.Append(&seg, Segment{Digest: "short"}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "segments", "seg-000000.gob"), seg.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var cerr *CorruptSegmentError
	if _, err := w.Segment(0); err == nil || errors.As(err, &cerr) {
		t.Fatalf("Segment(0) with a foreign digest = %v, want an identity refusal", err)
	}
	w.Close()

	var wal bytes.Buffer
	if err := framelog.Append(&wal, streamHeader{Version: streamVersion, Digest: "short", Meta: meta}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal.gob"), wal.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStream(dir, meta); err == nil {
		t.Fatal("opening a WAL with a foreign digest succeeded, want refusal")
	}
}

// corruptLength is a frame header whose uvarint length prefix is 2^64-3,
// so adding the header size to it wraps around.
var corruptLength = append(binary.AppendUvarint(nil, math.MaxUint64-2), 0, 0, 0, 0)

func TestStreamWALTornTailHealed(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(raw []byte) []byte
		runs   int64 // runs that survive the heal
	}{
		{"truncated", func(raw []byte) []byte { return raw[:len(raw)-3] }, 2},
		{"corrupt length", func(raw []byte) []byte { return append(raw, corruptLength...) }, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			meta := streamMetaForTest(4, 0)
			w, err := OpenStream(dir, meta)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range runSeq(3) {
				if _, err := w.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			w.Close()

			// A crash mid-append leaves a torn frame at the WAL tail; the
			// reopen must keep the intact prefix and drop the tail.
			wal := filepath.Join(dir, "wal.gob")
			raw, err := os.ReadFile(wal)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(wal, tc.damage(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			w, err = OpenStream(dir, meta)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if w.TotalRuns() != tc.runs || w.OpenRuns() != int(tc.runs) {
				t.Fatalf("after torn tail: total=%d open=%d, want %d/%d", w.TotalRuns(), w.OpenRuns(), tc.runs, tc.runs)
			}
			// And the stream keeps working from the healed state.
			if _, err := w.Append(streamRun("A-128", 2, 2000, 6)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestStreamRecoverSealsOnReopen(t *testing.T) {
	dir := t.TempDir()
	meta := streamMetaForTest(3, 0)
	w, err := OpenStream(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	runs := runSeq(3)
	for _, r := range runs[:2] {
		if _, err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	// Simulate a crash after the WAL append of the window-completing run
	// but before the seal: hand-append the third run's frame.
	var buf bytes.Buffer
	if err := framelog.Append(&buf, runs[2]); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "wal.gob"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w, err = OpenStream(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.SealedSegments() != 1 || w.OpenRuns() != 0 || w.TotalRuns() != 3 {
		t.Fatalf("after recovery: segments=%d open=%d total=%d, want 1/0/3",
			w.SealedSegments(), w.OpenRuns(), w.TotalRuns())
	}
	seg, err := w.Segment(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(seg.Runs) != 3 || seg.Runs[2].RunID != runs[2].RunID {
		t.Fatalf("recovered segment: %d runs, last id %d", len(seg.Runs), seg.Runs[len(seg.Runs)-1].RunID)
	}
}

func TestStreamWindowSpanSeal(t *testing.T) {
	dir := t.TempDir()
	meta := streamMetaForTest(100, 1500) // count bound effectively off
	w, err := OpenStream(dir, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i, start := range []float64{0, 1000, 2000} {
		if _, err := w.Append(streamRun("A-128", i, start, 6)); err != nil {
			t.Fatal(err)
		}
	}
	// 2000 - 0 > 1500 forced a seal of {0, 1000} before admitting 2000.
	if w.SealedSegments() != 1 || w.OpenRuns() != 1 {
		t.Fatalf("span seal: segments=%d open=%d, want 1/1", w.SealedSegments(), w.OpenRuns())
	}
	// A clock rewind (new campaign epoch) also seals.
	if _, err := w.Append(streamRun("A-128", 3, 100, 6)); err != nil {
		t.Fatal(err)
	}
	if w.SealedSegments() != 2 || w.OpenRuns() != 1 {
		t.Fatalf("rewind seal: segments=%d open=%d, want 2/1", w.SealedSegments(), w.OpenRuns())
	}
}

func TestStreamCorruptSegmentQuarantine(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(raw []byte) []byte
	}{
		{"flipped byte", func(raw []byte) []byte { raw[len(raw)/2] ^= 0xff; return raw }},
		{"corrupt length", func([]byte) []byte { return corruptLength }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			meta := streamMetaForTest(3, 0)
			w, err := OpenStream(dir, meta)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			for _, r := range runSeq(3) {
				if _, err := w.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			segPath := filepath.Join(dir, "segments", "seg-000000.gob")
			raw, err := os.ReadFile(segPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(segPath, tc.damage(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			_, err = w.Segment(0)
			var cerr *CorruptSegmentError
			if !errors.As(err, &cerr) {
				t.Fatalf("Segment(0) = %v, want CorruptSegmentError", err)
			}
			if !cerr.Quarantined {
				t.Fatalf("segment not quarantined: %v", cerr)
			}
			if _, err := os.Stat(segPath + ".corrupt"); err != nil {
				t.Fatalf("quarantine file missing: %v", err)
			}
			if _, err := os.Stat(segPath); !os.IsNotExist(err) {
				t.Fatalf("corrupt segment still in place: %v", err)
			}
		})
	}
}

// TestStreamBatchEquivalence is the batch-vs-streaming contract: the same
// run sequence ingested through the stream assembles into a campaign that
// saves byte-identically to one built directly.
func TestStreamBatchEquivalence(t *testing.T) {
	dir := t.TempDir()
	meta := streamMetaForTest(4, 0)
	runs := runSeq(11) // deliberately not a multiple of the window size

	batch := &Campaign{Seed: meta.Seed, Days: meta.Days, Faults: meta.Faults,
		Routing: meta.Routing, Placement: meta.Placement}
	for _, info := range meta.Datasets {
		batch.Datasets = append(batch.Datasets,
			&Dataset{Name: info.Name, App: info.App, Nodes: info.Nodes, Runs: []*Run{}})
	}
	for _, r := range runs {
		d := batch.Get(r.Dataset)
		d.Runs = append(d.Runs, r)
	}

	w, err := OpenStream(filepath.Join(dir, "stream"), meta)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, r := range runs {
		if _, err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	streamed, err := w.Assemble()
	if err != nil {
		t.Fatal(err)
	}

	batchPath := filepath.Join(dir, "batch.gob")
	streamPath := filepath.Join(dir, "streamed.gob")
	if err := batch.Save(batchPath); err != nil {
		t.Fatal(err)
	}
	if err := streamed.Save(streamPath); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(batchPath)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(streamPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("batch and streamed campaigns differ: %d vs %d bytes", len(b1), len(b2))
	}
}
