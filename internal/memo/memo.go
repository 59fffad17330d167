// Package memo is the repository's one cross-run cache: a singleflight
// map from a content key to a computed value, bounded by a byte budget.
// The tape, profile and selection caches are thin callers of it.
//
// The first caller of a key runs the build; concurrent callers of the
// same key block until it finishes and share its result. A build that
// fails — returns an error or unwinds with a panic — is never stored:
// its waiters receive the error (a panic keeps unwinding on the
// builder's own stack and reaches the waiters as an error), and the
// next caller of the key builds again. A successful result is stored only if its size fits
// what is left of the budget. The size is charged once the build has
// finished, in the same critical section that decides whether to store,
// so concurrent cold builds cannot overshoot the budget. A result that
// does not fit is still returned to its builder and every waiter; it is
// just not retained.
package memo

import (
	"errors"
	"sync"
)

// errUnwound is the error waiters receive when the build they waited on
// panicked instead of returning.
var errUnwound = errors.New("memo: build did not complete")

// Memo memoizes one kind of computation. The zero value is not usable;
// call New.
type Memo[K comparable, V any] struct {
	budget int64
	size   func(V) int64

	mu      sync.Mutex
	entries map[K]*call[V] // in-flight builds and stored results
	stats   Stats
}

// call is one build: done closes once val and err are final.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Stats is a snapshot of a memo's counters since New or the last Reset.
type Stats struct {
	// Hits counts calls served by another caller's build, stored or in
	// flight (including waiters that shared its error); Misses counts
	// calls that ran the build themselves.
	Hits, Misses int64
	// Entries and Bytes are the stored results and their charged size.
	Entries int
	Bytes   int64
}

// New returns an empty memo that retains results while the sum of their
// sizes, as reported by size, stays within budget bytes.
func New[K comparable, V any](budget int64, size func(V) int64) *Memo[K, V] {
	return &Memo[K, V]{budget: budget, size: size, entries: make(map[K]*call[V])}
}

// Get returns the value for key, calling build to compute it unless a
// stored result or an in-flight build of the same key can serve it. hit
// reports that another caller's build produced the result.
func (m *Memo[K, V]) Get(key K, build func() (V, error)) (v V, hit bool, err error) {
	m.mu.Lock()
	if c, ok := m.entries[key]; ok {
		m.stats.Hits++
		m.mu.Unlock()
		<-c.done
		return c.val, true, c.err
	}
	c := &call[V]{done: make(chan struct{}), err: errUnwound}
	m.entries[key] = c
	m.stats.Misses++
	m.mu.Unlock()

	// A panicking build leaves c.err at errUnwound; finish still runs,
	// drops the entry and releases the waiters.
	defer m.finish(key, c)
	c.val, c.err = build()
	return c.val, false, c.err
}

// finish stores c's result if it succeeded and fits the budget, drops
// the entry otherwise, and releases c's waiters. A Reset that ran during
// the build already dropped the entry, and the result is not charged.
func (m *Memo[K, V]) finish(key K, c *call[V]) {
	defer close(c.done)
	var n int64
	if c.err == nil {
		n = m.size(c.val)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.entries[key] != c {
		return
	}
	if c.err == nil && m.stats.Bytes+n <= m.budget {
		m.stats.Bytes += n
		m.stats.Entries++
		return
	}
	delete(m.entries, key)
}

// Stats returns a snapshot of the memo's counters.
func (m *Memo[K, V]) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Reset drops every stored result and zeroes the counters. Builds in
// flight still complete and serve their waiters, but are not stored.
func (m *Memo[K, V]) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries = make(map[K]*call[V])
	m.stats = Stats{}
}
