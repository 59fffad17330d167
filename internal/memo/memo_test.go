package memo

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// unitSize charges every value its own int as bytes.
func unitSize(v int) int64 { return int64(v) }

// awaitHits blocks until m has counted n hits, i.e. until n callers are
// waiting on (or were served by) another caller's build.
func awaitHits(m *Memo[string, int], n int64) {
	for m.Stats().Hits < n {
		runtime.Gosched()
	}
}

func TestConcurrentCallersShareOneBuild(t *testing.T) {
	const callers = 16
	m := New[string](1<<20, unitSize)
	var builds atomic.Int64
	release := make(chan struct{})
	got := make([]int, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := m.Get("k", func() (int, error) {
				builds.Add(1)
				<-release
				return 42, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			got[i] = v
		}(i)
	}
	awaitHits(m, callers-1)
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds for one key, want 1", n)
	}
	for i, v := range got {
		if v != 42 {
			t.Fatalf("caller %d got %d, want 42", i, v)
		}
	}
	if s := m.Stats(); s.Hits != callers-1 || s.Misses != 1 || s.Entries != 1 || s.Bytes != 42 {
		t.Fatalf("stats = %+v, want 15 hits, 1 miss, 1 entry of 42 bytes", s)
	}
}

func TestFailedBuildReachesWaitersAndIsNotStored(t *testing.T) {
	const callers = 8
	m := New[string](1<<20, unitSize)
	boom := errors.New("boom")
	release := make(chan struct{})
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = m.Get("k", func() (int, error) {
				<-release
				return 0, boom
			})
		}(i)
	}
	awaitHits(m, callers-1)
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("caller %d: err = %v, want the build's error", i, err)
		}
	}
	if s := m.Stats(); s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("failed build left %d entries (%d bytes), want none", s.Entries, s.Bytes)
	}
	v, hit, err := m.Get("k", func() (int, error) { return 7, nil })
	if err != nil || hit || v != 7 {
		t.Fatalf("retry after failure = (%d, hit=%v, %v), want a fresh build of 7", v, hit, err)
	}
}

func TestPanickingBuildReleasesWaiters(t *testing.T) {
	const waiters = 4
	m := New[string](1<<20, unitSize)
	release := make(chan struct{})
	built := make(chan struct{})
	var recovered any
	go func() {
		defer close(built)
		defer func() { recovered = recover() }()
		_, _, _ = m.Get("k", func() (int, error) {
			<-release
			panic("builder unwound")
		})
	}()
	for m.Stats().Misses == 0 {
		runtime.Gosched()
	}
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = m.Get("k", func() (int, error) { return 1, nil })
		}(i)
	}
	awaitHits(m, waiters)
	close(release)
	wg.Wait()
	<-built
	if recovered == nil {
		t.Fatal("the builder's panic did not reach its own caller")
	}
	for i, err := range errs {
		if !errors.Is(err, errUnwound) {
			t.Fatalf("waiter %d: err = %v, want errUnwound", i, err)
		}
	}
	if s := m.Stats(); s.Entries != 0 {
		t.Fatalf("panicked build left %d entries, want none", s.Entries)
	}
}

func TestHitMissCountsExact(t *testing.T) {
	m := New[string](1<<20, unitSize)
	ok := func(v int) func() (int, error) { return func() (int, error) { return v, nil } }
	fail := func() (int, error) { return 0, errors.New("no") }
	calls := []struct {
		key   string
		build func() (int, error)
		hit   bool
	}{
		{"a", ok(1), false},
		{"a", ok(99), true},
		{"b", ok(2), false},
		{"a", ok(99), true},
		{"c", fail, false},
		{"c", fail, false}, // failures are never stored
		{"c", ok(3), false},
		{"c", ok(99), true},
	}
	for i, c := range calls {
		if _, hit, _ := m.Get(c.key, c.build); hit != c.hit {
			t.Fatalf("call %d (%s): hit = %v, want %v", i, c.key, hit, c.hit)
		}
	}
	if s := m.Stats(); s.Hits != 3 || s.Misses != 5 || s.Entries != 3 || s.Bytes != 6 {
		t.Fatalf("stats = %+v, want 3 hits, 5 misses, 3 entries of 6 bytes", s)
	}
	m.Reset()
	if s := m.Stats(); s != (Stats{}) {
		t.Fatalf("stats after Reset = %+v, want zero", s)
	}
}

// TestBudgetHoldsUnderConcurrentBuilds pins the add-and-check bound:
// two cold builds finishing together, either of which fits alone but
// not both, leave exactly one stored entry, and both callers still get
// their value.
func TestBudgetHoldsUnderConcurrentBuilds(t *testing.T) {
	m := New[string](100, unitSize)
	var started sync.WaitGroup
	started.Add(2)
	got := make([]int, 2)
	var wg sync.WaitGroup
	for i, key := range []string{"x", "y"} {
		wg.Add(1)
		go func(i int, key string) {
			defer wg.Done()
			v, _, err := m.Get(key, func() (int, error) {
				started.Done()
				started.Wait() // both builds are in flight before either finishes
				return 60, nil
			})
			if err != nil {
				t.Errorf("build %s: %v", key, err)
			}
			got[i] = v
		}(i, key)
	}
	wg.Wait()
	if got[0] != 60 || got[1] != 60 {
		t.Fatalf("callers got %v, want both 60", got)
	}
	if s := m.Stats(); s.Entries != 1 || s.Bytes != 60 {
		t.Fatalf("stats = %+v, want exactly one stored entry of 60 bytes", s)
	}
}
