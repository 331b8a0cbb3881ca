// Package memo is the module's one memo: a bounded LRU cache fronted
// by singleflight coalescing, so identical in-flight computations run
// once and their result is shared. Three layers use it:
//
//   - serve caches response bytes per canonical scenario key, bounded
//     by entry count and by key+value bytes;
//   - demand.Distribution owns a per-dataset stage memo (string keys)
//     for derived values that are invariant across sweep points;
//   - core keeps two struct-keyed memos (binding scans, diminishing-
//     returns profiles) in one entry of that stage memo, so its hot
//     sizing path pays no key formatting.
//
// Determinism is what makes sharing sound: a key fully determines its
// value, so a cached or coalesced answer equals a fresh one.
package memo

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// Status classifies how a Get was satisfied.
type Status int

const (
	// StatusMiss: this caller ran the fill function.
	StatusMiss Status = iota
	// StatusHit: the memo already held the value.
	StatusHit
	// StatusCoalesced: an identical fill was already in flight; this
	// caller waited for its result instead of running a second one.
	StatusCoalesced
)

// String names the status in lowercase ("hit", "miss", "coalesced"),
// the values of serve's X-Leodivide-Cache response header.
func (s Status) String() string {
	switch s {
	case StatusHit:
		return "hit"
	case StatusCoalesced:
		return "coalesced"
	default:
		return "miss"
	}
}

// DefaultEntries is the entry bound New selects for maxEntries <= 0.
// Stage values are small, but serve queries can mint one entry per
// distinct model knob, so every memo is bounded.
const DefaultEntries = 128

// ErrPanicked is what coalesced followers receive when their leader's
// fill panicked. Nothing is cached; a retry runs a fresh fill.
var ErrPanicked = errors.New("memo: fill panicked in the coalescing leader")

// Memo is a bounded LRU of K → V with singleflight coalescing. Build
// one with New. A nil *Memo is usable: every Get just runs the fill,
// uncached, so an optional memo degrades gracefully.
type Memo[K comparable, V any] struct {
	mu         sync.Mutex
	entries    map[K]*list.Element
	ll         *list.List // front = most recently used
	maxEntries int
	maxBytes   int64 // 0 = no byte bound
	weigh      func(K, V) int64
	bytes      int64 // sum of weights of cached entries
	flight     map[K]*call[V]

	hits, misses, coalesced, evictions int64
}

type entry[K comparable, V any] struct {
	key    K
	val    V
	weight int64
}

// call is one in-flight fill; followers wait on done and then read
// val/err, which the leader writes before closing done.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns a memo bounded to maxEntries values (<= 0 selects
// DefaultEntries). weigh, when non-nil, accounts each cached entry's
// footprint; with maxBytes > 0 the memo also evicts past that many
// accounted bytes. A nil weigh means no byte bound.
func New[K comparable, V any](maxEntries int, maxBytes int64, weigh func(K, V) int64) *Memo[K, V] {
	if maxEntries <= 0 {
		maxEntries = DefaultEntries
	}
	if maxBytes < 0 || weigh == nil {
		maxBytes = 0
	}
	return &Memo[K, V]{
		entries:    make(map[K]*list.Element),
		ll:         list.New(),
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		weigh:      weigh,
		flight:     make(map[K]*call[V]),
	}
}

// Get returns the value for key, running fill on a miss. Concurrent
// Gets of one key share a single fill: the first caller (the leader)
// runs it, later callers (followers) wait and receive its result.
// Successful fills are cached, LRU past the bounds; errors are not, so
// a transient failure does not poison the key.
//
// A follower whose own ctx ends first returns ctx's error. A follower
// whose leader failed with a context error while the follower's ctx is
// still live retries — leading a fresh fill or joining one — because
// the leader's cancellation says nothing about the follower's request.
func (m *Memo[K, V]) Get(ctx context.Context, key K, fill func() (V, error)) (V, Status, error) {
	if m == nil {
		v, err := fill()
		return v, StatusMiss, err
	}
	for {
		v, c, st := m.claim(key)
		switch st {
		case StatusHit:
			return v, StatusHit, nil
		case StatusMiss:
			return m.lead(key, c, fill)
		}
		select {
		case <-c.done:
		case <-ctx.Done():
			var zero V
			return zero, StatusCoalesced, ctx.Err()
		}
		if ctx.Err() == nil && isContextErr(c.err) {
			continue
		}
		return c.val, StatusCoalesced, c.err
	}
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// claim resolves key under the lock: a cached value (StatusHit), the
// in-flight call to wait on (StatusCoalesced), or a freshly published
// call this caller must lead (StatusMiss).
func (m *Memo[K, V]) claim(key K) (V, *call[V], Status) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[key]; ok {
		m.ll.MoveToFront(el)
		m.hits++
		return el.Value.(*entry[K, V]).val, nil, StatusHit
	}
	var zero V
	if c, ok := m.flight[key]; ok {
		m.coalesced++
		return zero, c, StatusCoalesced
	}
	c := &call[V]{done: make(chan struct{})}
	m.flight[key] = c
	m.misses++
	return zero, c, StatusMiss
}

// lead runs fill for the call claim published. The flight entry is
// already visible to followers, so the cleanup is deferred: however
// fill returns — panic included — the entry is removed and done is
// closed, and followers of a panicked fill get ErrPanicked instead of
// a key wedged forever. The panic itself keeps unwinding into the
// leader's caller. The weigher runs here too, outside the lock.
func (m *Memo[K, V]) lead(key K, c *call[V], fill func() (V, error)) (V, Status, error) {
	completed := false
	var weight int64
	defer func() {
		if !completed {
			c.err = ErrPanicked
		}
		m.mu.Lock()
		delete(m.flight, key)
		if c.err == nil {
			m.add(key, c.val, weight)
		}
		m.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fill()
	if c.err == nil && m.weigh != nil {
		weight = m.weigh(key, c.val)
	}
	completed = true
	return c.val, StatusMiss, c.err
}

// add inserts under m.mu, then evicts least recently used entries past
// either bound. The newest entry always stays, even when it alone
// exceeds maxBytes: its caller just computed it, and serving it from
// the memo once beats thrashing.
func (m *Memo[K, V]) add(key K, val V, weight int64) {
	m.entries[key] = m.ll.PushFront(&entry[K, V]{key: key, val: val, weight: weight})
	m.bytes += weight
	for m.ll.Len() > 1 && (m.ll.Len() > m.maxEntries || (m.maxBytes > 0 && m.bytes > m.maxBytes)) {
		e := m.ll.Remove(m.ll.Back()).(*entry[K, V])
		delete(m.entries, e.key)
		m.bytes -= e.weight
		m.evictions++
	}
}

// Size reports the number of cached values and their accounted bytes.
func (m *Memo[K, V]) Size() (entries int, bytes int64) {
	if m == nil {
		return 0, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ll.Len(), m.bytes
}

// Counters returns the memo's lifetime traffic counts.
func (m *Memo[K, V]) Counters() (hits, misses, coalesced, evictions int64) {
	if m == nil {
		return 0, 0, 0, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses, m.coalesced, m.evictions
}
