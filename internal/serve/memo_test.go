package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"leodivide/internal/memo"
)

// newMemo builds the response memo the way New does: response bytes
// keyed by canonical scenario key, weighed by weighResponse.
func newMemo(maxEntries int, maxBytes int64) *memo.Memo[string, []byte] {
	return memo.New(maxEntries, maxBytes, weighResponse)
}

// stats reports the memo's entry count, accounted bytes and evictions.
func stats(m *memo.Memo[string, []byte]) (entries int, size, evictions int64) {
	entries, size = m.Size()
	_, _, _, evictions = m.Counters()
	return entries, size, evictions
}

// waitCoalesced spins until n followers have joined the in-flight fill.
func waitCoalesced(m *memo.Memo[string, []byte], n int64) {
	for {
		if _, _, c, _ := m.Counters(); c >= n {
			return
		}
		runtime.Gosched()
	}
}

// TestMemoCoalescesConcurrentFills is the serving layer's core
// guarantee under `go test -race`: N goroutines asking for the same
// key run the fill exactly once, and every caller gets byte-identical
// bytes. The leader blocks inside fill until every other goroutine has
// been launched, so the test exercises the in-flight (coalescing) path
// rather than the warm-cache path.
func TestMemoCoalescesConcurrentFills(t *testing.T) {
	const followers = 31
	m := newMemo(8, 0)
	var fills atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	want := []byte(`{"result":42}`)
	fill := func() ([]byte, error) {
		fills.Add(1)
		close(entered)
		<-release
		return want, nil
	}

	ctx := context.Background()
	type outcome struct {
		val    []byte
		status memo.Status
		err    error
	}
	results := make(chan outcome, followers+1)
	get := func() {
		v, st, err := m.Get(ctx, "k", fill)
		results <- outcome{v, st, err}
	}

	go get()
	<-entered // the leader is inside fill and holds the flight slot
	var launched sync.WaitGroup
	for i := 0; i < followers; i++ {
		launched.Add(1)
		go func() {
			launched.Done()
			get()
		}()
	}
	launched.Wait()
	close(release)

	statuses := map[memo.Status]int{}
	for i := 0; i < followers+1; i++ {
		o := <-results
		if o.err != nil {
			t.Fatalf("get returned error: %v", o.err)
		}
		if !bytes.Equal(o.val, want) {
			t.Fatalf("get returned %q, want %q (responses must be byte-identical)", o.val, want)
		}
		statuses[o.status]++
	}
	if n := fills.Load(); n != 1 {
		t.Errorf("fill ran %d times for one key, want exactly 1", n)
	}
	if statuses[memo.StatusMiss] != 1 {
		t.Errorf("want exactly one miss (the leader), got %d (statuses %v)", statuses[memo.StatusMiss], statuses)
	}
}

func TestMemoHitAfterFill(t *testing.T) {
	m := newMemo(8, 0)
	var fills int
	fill := func() ([]byte, error) { fills++; return []byte("v"), nil }
	ctx := context.Background()
	if _, st, err := m.Get(ctx, "k", fill); err != nil || st != memo.StatusMiss {
		t.Fatalf("first get: status %v, err %v", st, err)
	}
	v, st, err := m.Get(ctx, "k", fill)
	if err != nil || st != memo.StatusHit || string(v) != "v" {
		t.Fatalf("second get: %q, status %v, err %v", v, st, err)
	}
	if fills != 1 {
		t.Errorf("fill ran %d times, want 1", fills)
	}
}

func TestMemoLRUEviction(t *testing.T) {
	m := newMemo(2, 0)
	fillFor := func(k string, n *int) func() ([]byte, error) {
		return func() ([]byte, error) { *n++; return []byte(k), nil }
	}
	ctx := context.Background()
	var fa, fb, fc int
	mustGet := func(k string, fill func() ([]byte, error)) memo.Status {
		t.Helper()
		_, st, err := m.Get(ctx, k, fill)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	mustGet("a", fillFor("a", &fa))
	mustGet("b", fillFor("b", &fb))
	// Touch "a" so "b" is the LRU victim when "c" arrives.
	if st := mustGet("a", fillFor("a", &fa)); st != memo.StatusHit {
		t.Fatalf("a should be cached, got %v", st)
	}
	mustGet("c", fillFor("c", &fc))
	if entries, _, evictions := stats(m); entries != 2 || evictions != 1 {
		t.Errorf("stats = (%d entries, %d evictions), want (2, 1)", entries, evictions)
	}
	if st := mustGet("a", fillFor("a", &fa)); st != memo.StatusHit {
		t.Errorf("recently-used key a should still hit, got %v", st)
	}
	// Refilling the evicted "b" pushes out the cache's new LRU, "c".
	if st := mustGet("b", fillFor("b", &fb)); st != memo.StatusMiss {
		t.Errorf("evicted key b should miss, got %v", st)
	}
	if st := mustGet("c", fillFor("c", &fc)); st != memo.StatusMiss {
		t.Errorf("key c should have been evicted by b's refill, got %v", st)
	}
	if fa != 1 || fb != 2 || fc != 2 {
		t.Errorf("fill counts a=%d b=%d c=%d, want 1, 2, 2", fa, fb, fc)
	}
}

func TestMemoErrorsAreNotCached(t *testing.T) {
	m := newMemo(8, 0)
	boom := errors.New("boom")
	calls := 0
	ctx := context.Background()
	fill := func() ([]byte, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return []byte("ok"), nil
	}
	if _, _, err := m.Get(ctx, "k", fill); !errors.Is(err, boom) {
		t.Fatalf("first get err = %v, want boom", err)
	}
	v, st, err := m.Get(ctx, "k", fill)
	if err != nil || st != memo.StatusMiss || string(v) != "ok" {
		t.Fatalf("retry after error: %q, status %v, err %v (errors must not poison the key)", v, st, err)
	}
}

// TestMemoByteEviction pins the byte-bound behaviour: entries are
// evicted oldest-first once cached key+value bytes exceed the cap, even
// when the entry count is far below maxEntries, and the accounted bytes
// shrink to match. The newest entry is always retained, even when it
// alone exceeds the cap.
func TestMemoByteEviction(t *testing.T) {
	// Each entry: 1-byte key + 40-byte value = 41 bytes. Cap fits two.
	m := newMemo(100, 90)
	ctx := context.Background()
	val := bytes.Repeat([]byte("x"), 40)
	put := func(k string) {
		t.Helper()
		if _, _, err := m.Get(ctx, k, func() ([]byte, error) { return val, nil }); err != nil {
			t.Fatal(err)
		}
	}
	put("a")
	put("b")
	if entries, size, evictions := stats(m); entries != 2 || size != 82 || evictions != 0 {
		t.Fatalf("after 2 puts: stats = (%d, %d, %d), want (2, 82, 0)", entries, size, evictions)
	}
	// A third entry pushes bytes to 123 > 90: the oldest ("a") goes.
	put("c")
	if entries, size, evictions := stats(m); entries != 2 || size != 82 || evictions != 1 {
		t.Errorf("after byte overflow: stats = (%d, %d, %d), want (2, 82, 1)", entries, size, evictions)
	}
	if _, st, err := m.Get(ctx, "a", func() ([]byte, error) { return val, nil }); err != nil || st != memo.StatusMiss {
		t.Errorf("oldest key a should have been evicted by bytes, got status %v, err %v", st, err)
	}
	// An entry larger than the whole cap evicts everything else but is
	// itself retained: serving it once from cache beats thrashing.
	huge := bytes.Repeat([]byte("y"), 200)
	if _, _, err := m.Get(ctx, "h", func() ([]byte, error) { return huge, nil }); err != nil {
		t.Fatal(err)
	}
	if entries, size, _ := stats(m); entries != 1 || size != 201 {
		t.Errorf("oversized entry: stats = (%d entries, %d bytes), want (1, 201)", entries, size)
	}
	if _, st, err := m.Get(ctx, "h", func() ([]byte, error) { return huge, nil }); err != nil || st != memo.StatusHit {
		t.Errorf("oversized entry should still be served from cache, got status %v, err %v", st, err)
	}
}

// TestMemoUnboundedBytes pins that maxBytes <= 0 disables the byte
// bound entirely: only the entry count evicts.
func TestMemoUnboundedBytes(t *testing.T) {
	m := newMemo(4, 0)
	ctx := context.Background()
	big := bytes.Repeat([]byte("z"), 1<<16)
	for _, k := range []string{"a", "b", "c", "d"} {
		if _, _, err := m.Get(ctx, k, func() ([]byte, error) { return big, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if entries, size, evictions := stats(m); entries != 4 || size != 4*(1<<16)+4 || evictions != 0 {
		t.Errorf("stats = (%d, %d, %d), want (4, %d, 0)", entries, size, evictions, 4*(1<<16)+4)
	}
}

func TestMemoFollowerHonorsOwnContext(t *testing.T) {
	m := newMemo(8, 0)
	entered := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		//lint:ignore errdrop test leader; outcome checked via the follower
		m.Get(context.Background(), "k", func() ([]byte, error) {
			close(entered)
			<-release
			return []byte("v"), nil
		})
	}()
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := m.Get(ctx, "k", func() ([]byte, error) {
		return nil, fmt.Errorf("follower must not fill")
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled follower err = %v, want context.Canceled", err)
	}
	close(release)
	<-leaderDone
}

// TestMemoPanickingFillDoesNotWedgeKey: a response fill that panics
// must (a) keep unwinding through the leader, (b) release a coalesced
// follower with an error rather than a hang, and (c) leave the key
// workable so a retry runs a fresh fill and caches normally.
func TestMemoPanickingFillDoesNotWedgeKey(t *testing.T) {
	m := newMemo(8, 0)
	ctx := context.Background()
	entered := make(chan struct{})
	release := make(chan struct{})

	leaderDone := make(chan any, 1)
	go func() {
		defer func() { leaderDone <- recover() }()
		//lint:ignore errdrop test leader; the panic is the outcome under test
		m.Get(ctx, "k", func() ([]byte, error) {
			close(entered)
			<-release
			panic("fill exploded")
		})
	}()
	<-entered
	followerErr := make(chan error, 1)
	go func() {
		_, _, err := m.Get(ctx, "k", func() ([]byte, error) { return []byte("follower"), nil })
		followerErr <- err
	}()
	waitCoalesced(m, 1)
	close(release)

	if recovered := <-leaderDone; recovered != "fill exploded" {
		t.Fatalf("leader recover() = %v; the panic must keep unwinding through the leader", recovered)
	}
	// The waiting follower must be released with an error, not stranded
	// and not handed an empty body as if it were a success.
	if err := <-followerErr; !errors.Is(err, memo.ErrPanicked) {
		t.Fatalf("follower err = %v, want memo.ErrPanicked", err)
	}

	// The key must not be wedged or poisoned: a fresh get runs a fresh
	// fill and caches normally.
	val, st, err := m.Get(ctx, "k", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || string(val) != "ok" || st != memo.StatusMiss {
		t.Fatalf("retry after panic = (%q, %v, %v), want (ok, miss, nil)", val, st, err)
	}
	if _, st, _ := m.Get(ctx, "k", nil); st != memo.StatusHit {
		t.Fatalf("second retry status = %v, want hit", st)
	}
}
