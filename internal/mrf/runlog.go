package mrf

import (
	"encoding/json"
	"io"
	"sync"

	"rsu/internal/img"
)

// RunLog streams per-sweep SolveStats records as JSON Lines (one object per
// line), the opt-in run-observability output of the solver runtime. It is
// safe for concurrent use by multiple solves sharing one writer; records
// from one Write are never interleaved.
type RunLog struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error // first record write error
}

// runLogRecord is the JSONL schema, one line per sweep.
type runLogRecord struct {
	Run       string  `json:"run"`
	Sweep     int     `json:"sweep"`
	T         float64 `json:"temperature"`
	Energy    float64 `json:"energy"`
	Flips     int     `json:"flips"`
	ElapsedNs int64   `json:"elapsed_ns"`
}

// NewRunLog returns a run log writing to w. The caller owns w's lifetime
// (the log never closes it).
func NewRunLog(w io.Writer) *RunLog {
	return &RunLog{enc: json.NewEncoder(w)}
}

// Err returns the first error writing a record, or nil.
func (l *RunLog) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Hook returns an OnSweep callback that appends one record per sweep under
// the given run name and then forwards to next (which may be nil). A write
// error never aborts the solve — observability must not — but the first one
// is kept for Err, so the caller can report the lost records.
func (l *RunLog) Hook(run string, next func(iter int, lab *img.Labels, st SolveStats)) func(iter int, lab *img.Labels, st SolveStats) {
	return func(iter int, lab *img.Labels, st SolveStats) {
		l.mu.Lock()
		err := l.enc.Encode(runLogRecord{
			Run:       run,
			Sweep:     st.Sweep,
			T:         st.T,
			Energy:    st.Energy,
			Flips:     st.Flips,
			ElapsedNs: st.Elapsed.Nanoseconds(),
		})
		if l.err == nil {
			l.err = err
		}
		l.mu.Unlock()
		if next != nil {
			next(iter, lab, st)
		}
	}
}
