package mrf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"rsu/internal/img"
)

// TestRunLogRecordsAndChains checks the JSONL schema, one-line-per-sweep
// framing, and that the hook forwards to the wrapped callback.
func TestRunLogRecordsAndChains(t *testing.T) {
	var buf bytes.Buffer
	l := NewRunLog(&buf)
	forwarded := 0
	hook := l.Hook("chain-test", func(iter int, lab *img.Labels, st SolveStats) {
		forwarded++
	})
	for i := 0; i < 3; i++ {
		hook(i, nil, SolveStats{Sweep: i, T: 2.5, Energy: float64(100 - i), Flips: i, Elapsed: time.Millisecond})
	}
	if forwarded != 3 {
		t.Fatalf("next callback invoked %d times, want 3", forwarded)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("wrote %d lines, want 3", len(lines))
	}
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("line %d not valid JSON: %v", i, err)
		}
		if rec["run"] != "chain-test" || int(rec["sweep"].(float64)) != i {
			t.Fatalf("line %d: unexpected record %v", i, rec)
		}
		if rec["elapsed_ns"].(float64) != float64(time.Millisecond.Nanoseconds()) {
			t.Fatalf("line %d: elapsed_ns = %v", i, rec["elapsed_ns"])
		}
	}
}

// TestRunLogConcurrentWriters hammers one log from several goroutines (the
// multi-solve sharing case) and checks every line still parses — no
// interleaved records.
func TestRunLogConcurrentWriters(t *testing.T) {
	var buf bytes.Buffer
	l := NewRunLog(&buf)
	var wg sync.WaitGroup
	const writers, per = 8, 200
	for w := 0; w < writers; w++ {
		hook := l.Hook("w", nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				hook(i, nil, SolveStats{Sweep: i, T: 1, Energy: 0})
			}
		}()
	}
	wg.Wait()
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != writers*per {
		t.Fatalf("wrote %d lines, want %d", len(lines), writers*per)
	}
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("line %d corrupted by concurrent writes: %v", i, err)
		}
	}
}

// failAfter accepts n writes, then fails every later one.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n == 0 {
		return 0, fmt.Errorf("injected write failure")
	}
	f.n--
	return len(p), nil
}

// TestRunLogRecordsFirstWriteError checks that a failing writer neither
// panics nor stops the hook from forwarding, and that Err reports the first
// failure (nil before it).
func TestRunLogRecordsFirstWriteError(t *testing.T) {
	l := NewRunLog(&failAfter{n: 1})
	forwarded := 0
	hook := l.Hook("fail", func(int, *img.Labels, SolveStats) { forwarded++ })
	hook(0, nil, SolveStats{})
	if err := l.Err(); err != nil {
		t.Fatalf("Err after a good write = %v", err)
	}
	hook(1, nil, SolveStats{Sweep: 1})
	hook(2, nil, SolveStats{Sweep: 2})
	if err := l.Err(); err == nil || err.Error() != "injected write failure" {
		t.Fatalf("Err = %v, want the injected write failure", err)
	}
	if forwarded != 3 {
		t.Fatalf("next callback invoked %d times, want 3", forwarded)
	}
}
