package daemon

import (
	"encoding/gob"
	"fmt"
	"io"

	"dragonvar/internal/framelog"
)

// Pin the checkpoint wire types' process-global gob ids before any
// runtime gob activity, so record bytes don't depend on whether this
// process decoded a WAL (resume) or started fresh. See
// internal/dataset/gob_init.go for the full rationale.
func init() {
	enc := gob.NewEncoder(io.Discard)
	for _, v := range []any{checkpointHeader{}, progress{}} {
		if err := enc.Encode(v); err != nil {
			panic("daemon: gob warm-up: " + err.Error())
		}
	}
}

// The daemon checkpoint is an internal/framelog log. The first frame is
// a header binding the file to a config identity digest; every frame
// after it is one progress record, and the last valid record wins. A
// torn tail is healed on open; a whole frame that does not decode is an
// error, because the daemon never guesses where it stopped.

const checkpointVersion = 1

// progress is one checkpoint record: everything the daemon needs to
// continue exactly where it stopped. Every field is a pure function of
// the run so far — no wall-clock, no pointers — so an interrupted and an
// uninterrupted daemon write identical record sequences.
type progress struct {
	// Epoch is the epoch currently (or next) being simulated; RunsBefore
	// is the stream's TotalRuns when that epoch started. Their difference
	// from the live stream total is the resume skip count.
	Epoch      int
	RunsBefore int64

	// Sealed counts window-seal events fully processed (drift evaluated,
	// record appended). The stream's own SealedSegments may be ahead of
	// it after a crash; reconcile() replays the difference.
	Sealed int

	// Retraining state. LastRetrainSeal is the Sealed value at the last
	// completed retrain; DriftPending latches a drift breach until the
	// retrain it triggers completes.
	Retrains        int
	DriftRetrains   int
	LastRetrainSeal int
	DriftPending    bool

	// TrainMAPE is the serving forecaster's MAPE on its own training
	// windows; LiveMAPEs is the rolling per-segment forecast MAPE window
	// the drift detector compares against it.
	TrainMAPE float64
	LiveMAPEs []float64

	// RefForecast/RefDeviation/RefAdvisor are the object IDs this daemon
	// last published under its store refs — the compare-and-swap expect
	// values for the next publish.
	RefForecast  string
	RefDeviation string
	RefAdvisor   string

	// Published is the full publish log, re-rendered to published.json
	// after every retrain. Kept in the record so the file is a pure
	// function of checkpointed state.
	Published []publication
}

// publication is one entry of the publish log.
type publication struct {
	Retrain   int     `json:"retrain"`
	Seal      int     `json:"seal"`
	Reason    string  `json:"reason"` // "scheduled" or "drift"
	TrainMAPE float64 `json:"train_mape"`
	Windows   int     `json:"windows"`
	Forecast  string  `json:"forecast"`
	Deviation string  `json:"deviation"`
	Advisor   string  `json:"advisor"`
}

type checkpointHeader struct {
	Version int
	Digest  string // StreamMeta-style config identity digest
}

// openCheckpoint opens (or creates) the checkpoint at path, validates its
// identity digest, heals any torn tail, and returns the last recorded
// progress. A fresh checkpoint returns the zero progress.
func openCheckpoint(path, digest string) (*framelog.Log, progress, error) {
	lg, frames, err := framelog.Open(path, checkpointHeader{Version: checkpointVersion, Digest: digest})
	if err != nil {
		return nil, progress{}, fmt.Errorf("daemon: checkpoint: %w", err)
	}
	last, err := replayCheckpoint(path, digest, frames)
	if err != nil {
		lg.Close()
		return nil, progress{}, err
	}
	return lg, last, nil
}

// replayCheckpoint validates the header frame against digest and returns
// the last progress record.
func replayCheckpoint(path, digest string, frames [][]byte) (progress, error) {
	var hdr checkpointHeader
	if err := framelog.Decode(frames[0], &hdr); err != nil {
		return progress{}, fmt.Errorf("daemon: checkpoint header: %w", err)
	}
	if hdr.Version != checkpointVersion {
		return progress{}, fmt.Errorf("daemon: checkpoint %s: version %d, want %d", path, hdr.Version, checkpointVersion)
	}
	if hdr.Digest != digest {
		return progress{}, fmt.Errorf("daemon: checkpoint %s was written by a different configuration (digest %s, want %s)", path, hdr.Digest, digest)
	}
	var last progress
	for _, fr := range frames[1:] {
		var p progress
		if err := framelog.Decode(fr, &p); err != nil {
			return progress{}, fmt.Errorf("daemon: checkpoint record: %w", err)
		}
		last = p
	}
	return last, nil
}
