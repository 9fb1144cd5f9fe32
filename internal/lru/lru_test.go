package lru

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestGetCoalescesConcurrentBuilds: racing first callers of one key share a
// single build, and every caller but the builder counts as a hit.
func TestGetCoalescesConcurrentBuilds(t *testing.T) {
	c := New[string, int](4)
	var builds atomic.Int32
	release := make(chan struct{})
	const callers = 8
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.Get("k", func() (int, error) {
				builds.Add(1)
				<-release
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Get = %d, %v; want 42, nil", v, err)
			}
		}()
	}
	// Hold the build until every caller has looked the key up.
	for st := c.Stats(); st.Hits+st.Misses < callers; st = c.Stats() {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds, want 1", n)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != callers-1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 miss / %d hits / 1 entry", st, callers-1)
	}
}

// TestGetEvictsLeastRecentlyUsed: the cache holds at most its capacity and
// evicts the least recently used key.
func TestGetEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[int, int](2)
	get := func(k int) bool {
		_, hit, _ := c.Get(k, func() (int, error) { return k, nil })
		return hit
	}
	get(1)
	get(2)
	get(1) // 2 becomes the LRU
	get(3) // evicts 2
	if get(2) {
		t.Fatal("evicted key 2 still hit")
	}
	if !get(3) {
		t.Fatal("key 3 missed")
	}
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("entries = %d, want capacity 2", st.Entries)
	}
}

// TestGetDropsFailedBuilds: a build error or panic reaches the caller and
// drops the entry, so the next call builds again instead of hanging or
// returning the stale error.
func TestGetDropsFailedBuilds(t *testing.T) {
	c := New[string, int](4)
	boom := errors.New("boom")
	if _, _, err := c.Get("k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	func() {
		defer func() { _ = recover() }()
		c.Get("k", func() (int, error) { panic("build panic") })
	}()
	v, hit, err := c.Get("k", func() (int, error) { return 7, nil })
	if v != 7 || hit || err != nil {
		t.Fatalf("Get after failures = %d, hit %v, %v; want a fresh build of 7", v, hit, err)
	}
}
