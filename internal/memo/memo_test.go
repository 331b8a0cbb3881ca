package memo

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func weighLen(k, v string) int64 { return int64(len(k) + len(v)) }

// step is one sequential Get in a scripted case: fill returns val (or
// err when set); the Get must report status want and leave the memo at
// entries/bytes.
type step struct {
	key, val string
	err      error
	want     Status
	entries  int
	bytes    int64
}

// TestGetScripted covers the sequential contract: the first result is
// cached, errors are not, LRU order under the entry bound, byte
// eviction, the newest entry surviving alone past the byte bound, and
// an unbounded byte cap.
func TestGetScripted(t *testing.T) {
	boom := errors.New("boom")
	x40 := strings.Repeat("x", 40)
	y200 := strings.Repeat("y", 200)
	z64k := strings.Repeat("z", 1<<16)
	cases := []struct {
		name       string
		maxEntries int
		maxBytes   int64
		steps      []step
		// counters after the script: hits, misses, coalesced, evictions.
		counters [4]int64
	}{
		{"first result cached", 4, 0, []step{
			{key: "k", val: "v", want: StatusMiss, entries: 1, bytes: 2},
			{key: "k", val: "other", want: StatusHit, entries: 1, bytes: 2},
			{key: "k", val: "other", want: StatusHit, entries: 1, bytes: 2},
		}, [4]int64{2, 1, 0, 0}},
		{"errors not cached", 4, 0, []step{
			{key: "k", err: boom, want: StatusMiss},
			{key: "k", val: "ok", want: StatusMiss, entries: 1, bytes: 3},
			{key: "k", want: StatusHit, entries: 1, bytes: 3},
		}, [4]int64{1, 2, 0, 0}},
		{"lru order", 2, 0, []step{
			{key: "a", val: "a", want: StatusMiss, entries: 1, bytes: 2},
			{key: "b", val: "b", want: StatusMiss, entries: 2, bytes: 4},
			{key: "a", want: StatusHit, entries: 2, bytes: 4}, // b is now the LRU
			{key: "c", val: "c", want: StatusMiss, entries: 2, bytes: 4},
			{key: "a", want: StatusHit, entries: 2, bytes: 4},
			{key: "b", val: "b", want: StatusMiss, entries: 2, bytes: 4}, // evicts c
			{key: "c", val: "c", want: StatusMiss, entries: 2, bytes: 4},
		}, [4]int64{2, 5, 0, 3}},
		{"byte eviction", 100, 90, []step{
			{key: "a", val: x40, want: StatusMiss, entries: 1, bytes: 41},
			{key: "b", val: x40, want: StatusMiss, entries: 2, bytes: 82},
			{key: "c", val: x40, want: StatusMiss, entries: 2, bytes: 82}, // 123 > 90: a goes
			{key: "a", val: x40, want: StatusMiss, entries: 2, bytes: 82},
		}, [4]int64{0, 4, 0, 2}},
		{"newest kept past byte bound", 100, 90, []step{
			{key: "a", val: x40, want: StatusMiss, entries: 1, bytes: 41},
			{key: "b", val: x40, want: StatusMiss, entries: 2, bytes: 82},
			{key: "h", val: y200, want: StatusMiss, entries: 1, bytes: 201},
			{key: "h", want: StatusHit, entries: 1, bytes: 201},
		}, [4]int64{1, 3, 0, 2}},
		{"unbounded bytes", 4, 0, []step{
			{key: "a", val: z64k, want: StatusMiss, entries: 1, bytes: 1<<16 + 1},
			{key: "b", val: z64k, want: StatusMiss, entries: 2, bytes: 2<<16 + 2},
			{key: "c", val: z64k, want: StatusMiss, entries: 3, bytes: 3<<16 + 3},
			{key: "d", val: z64k, want: StatusMiss, entries: 4, bytes: 4<<16 + 4},
		}, [4]int64{0, 4, 0, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := New(tc.maxEntries, tc.maxBytes, weighLen)
			for i, s := range tc.steps {
				v, st, err := m.Get(context.Background(), s.key, func() (string, error) {
					if s.want == StatusHit {
						t.Fatalf("step %d: fill ran for a key that should hit", i)
					}
					return s.val, s.err
				})
				if st != s.want || !errors.Is(err, s.err) {
					t.Fatalf("step %d (%s): status %v err %v, want %v err %v", i, s.key, st, err, s.want, s.err)
				}
				if s.want == StatusMiss && err == nil && v != s.val {
					t.Fatalf("step %d: Get returned %q, want the fill's value", i, v)
				}
				if n, b := m.Size(); n != s.entries || b != s.bytes {
					t.Fatalf("step %d (%s): size (%d entries, %d bytes), want (%d, %d)", i, s.key, n, b, s.entries, s.bytes)
				}
			}
			h, mi, c, e := m.Counters()
			if got := [4]int64{h, mi, c, e}; got != tc.counters {
				t.Errorf("counters (hits, misses, coalesced, evictions) = %v, want %v", got, tc.counters)
			}
		})
	}
}

// TestNilWeighIgnoresByteBound: without a weigher there is nothing to
// bound, so maxBytes is inert and Size reports zero bytes.
func TestNilWeighIgnoresByteBound(t *testing.T) {
	m := New[string, string](4, 1, nil)
	for _, k := range []string{"a", "b", "c"} {
		if _, _, err := m.Get(context.Background(), k, func() (string, error) { return k + k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if n, b := m.Size(); n != 3 || b != 0 {
		t.Errorf("size = (%d, %d), want (3, 0)", n, b)
	}
}

func TestDefaultBounds(t *testing.T) {
	for _, max := range []int{0, -3} {
		m := New[string, int](max, -1, nil)
		if m.maxEntries != DefaultEntries || m.maxBytes != 0 {
			t.Errorf("New(%d, -1, nil) bounds = (%d, %d), want (%d, 0)", max, m.maxEntries, m.maxBytes, DefaultEntries)
		}
	}
}

func TestNilMemoRunsFill(t *testing.T) {
	var m *Memo[string, int]
	calls := 0
	for i := 0; i < 2; i++ {
		v, st, err := m.Get(context.Background(), "k", func() (int, error) { calls++; return i, nil })
		if err != nil || v != i || st != StatusMiss {
			t.Fatalf("nil Get = (%d, %v, %v), want (%d, miss, nil)", v, st, err, i)
		}
	}
	if calls != 2 {
		t.Fatalf("nil memo cached: %d fills, want 2", calls)
	}
	if n, b := m.Size(); n != 0 || b != 0 {
		t.Fatalf("nil Size = (%d, %d)", n, b)
	}
	if h, mi, c, e := m.Counters(); h|mi|c|e != 0 {
		t.Fatal("nil Counters nonzero")
	}
}

// startLeader runs a Get of key in a goroutine whose fill blocks until
// release closes, then returns fill's result. It returns once the
// leader is inside fill, i.e. holds the flight slot.
func startLeader(m *Memo[string, string], ctx context.Context, fill func() (string, error)) (release chan struct{}, done chan error) {
	entered := make(chan struct{})
	release = make(chan struct{})
	done = make(chan error, 1)
	go func() {
		_, _, err := m.Get(ctx, "k", func() (string, error) {
			close(entered)
			<-release
			return fill()
		})
		done <- err
	}()
	<-entered
	return release, done
}

// waitCoalesced spins until n followers have joined the in-flight fill.
func waitCoalesced(m *Memo[string, string], n int64) {
	for {
		if _, _, c, _ := m.Counters(); c >= n {
			return
		}
		runtime.Gosched()
	}
}

// TestCoalescesConcurrentFills is the singleflight guarantee under
// `go test -race`: followers arriving while the leader's fill runs get
// its result without a second fill.
func TestCoalescesConcurrentFills(t *testing.T) {
	const followers = 16
	m := New[string, string](8, 0, nil)
	var fills atomic.Int64
	release, leaderDone := startLeader(m, context.Background(), func() (string, error) {
		fills.Add(1)
		return "v", nil
	})
	var wg sync.WaitGroup
	wg.Add(followers)
	for i := 0; i < followers; i++ {
		go func() {
			defer wg.Done()
			v, st, err := m.Get(context.Background(), "k", func() (string, error) {
				fills.Add(1)
				return "follower filled", nil
			})
			if err != nil || v != "v" || st != StatusCoalesced {
				t.Errorf("follower got (%q, %v, %v), want (v, coalesced, nil)", v, st, err)
			}
		}()
	}
	waitCoalesced(m, followers)
	close(release)
	wg.Wait()
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if n := fills.Load(); n != 1 {
		t.Errorf("fill ran %d times for one key, want 1", n)
	}
	if h, mi, c, _ := m.Counters(); h != 0 || mi != 1 || c != followers {
		t.Errorf("counters hits=%d misses=%d coalesced=%d, want 0/1/%d", h, mi, c, followers)
	}
}

func TestFollowerHonorsOwnContext(t *testing.T) {
	m := New[string, string](8, 0, nil)
	release, leaderDone := startLeader(m, context.Background(), func() (string, error) { return "v", nil })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, st, err := m.Get(ctx, "k", func() (string, error) {
		return "", fmt.Errorf("follower must not fill")
	})
	if !errors.Is(err, context.Canceled) || st != StatusCoalesced {
		t.Errorf("cancelled follower = (%v, %v), want (coalesced, context.Canceled)", st, err)
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader: %v", err)
	}
}

// TestFollowerSurvivesCancelledLeader is the regression test for a
// follower inheriting its leader's cancellation: the leader's request
// ctx ends mid-fill and its fill returns context.Canceled, but the
// follower's own ctx is live, so the follower must run its own fill
// and succeed rather than report the leader's cancellation.
func TestFollowerSurvivesCancelledLeader(t *testing.T) {
	m := New[string, string](8, 0, nil)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	release, leaderDone := startLeader(m, leaderCtx, func() (string, error) {
		return "", leaderCtx.Err()
	})
	followerDone := make(chan error, 1)
	go func() {
		v, st, err := m.Get(context.Background(), "k", func() (string, error) { return "fresh", nil })
		if err == nil && (v != "fresh" || st != StatusMiss) {
			err = fmt.Errorf("follower got (%q, %v), want (fresh, miss)", v, st)
		}
		followerDone <- err
	}()
	waitCoalesced(m, 1)
	cancelLeader()
	close(release)
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	if err := <-followerDone; err != nil {
		t.Fatalf("live follower inherited the leader's failure: %v", err)
	}
	if _, st, _ := m.Get(context.Background(), "k", nil); st != StatusHit {
		t.Errorf("the follower's fill was not cached: status %v", st)
	}
}

// TestPanickingFillDoesNotWedgeKey: a fill that panics must (a) keep
// unwinding through the leader, (b) release a coalesced follower with
// ErrPanicked rather than a hang, and (c) leave the key workable so a
// retry runs a fresh fill.
func TestPanickingFillDoesNotWedgeKey(t *testing.T) {
	m := New[string, string](8, 0, nil)
	entered := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan any, 1)
	go func() {
		defer func() { leaderDone <- recover() }()
		//lint:ignore errdrop test leader; the panic is the outcome under test
		m.Get(context.Background(), "k", func() (string, error) {
			close(entered)
			<-release
			panic("fill exploded")
		})
	}()
	<-entered
	followerErr := make(chan error, 1)
	go func() {
		_, _, err := m.Get(context.Background(), "k", func() (string, error) { return "", nil })
		followerErr <- err
	}()
	waitCoalesced(m, 1)
	close(release)

	if recovered := <-leaderDone; recovered != "fill exploded" {
		t.Fatalf("leader recover() = %v; the panic must keep unwinding through the leader", recovered)
	}
	if err := <-followerErr; !errors.Is(err, ErrPanicked) {
		t.Fatalf("follower err = %v, want ErrPanicked", err)
	}
	m.mu.Lock()
	_, stillInFlight := m.flight["k"]
	m.mu.Unlock()
	if stillInFlight {
		t.Fatal("flight entry survived the panic; the key is wedged for future callers")
	}
	v, st, err := m.Get(context.Background(), "k", func() (string, error) { return "ok", nil })
	if err != nil || v != "ok" || st != StatusMiss {
		t.Fatalf("retry after panic = (%q, %v, %v), want (ok, miss, nil)", v, st, err)
	}
	if _, st, _ := m.Get(context.Background(), "k", nil); st != StatusHit {
		t.Fatalf("second retry status = %v, want hit", st)
	}
}

func TestStatusString(t *testing.T) {
	for st, want := range map[Status]string{StatusMiss: "miss", StatusHit: "hit", StatusCoalesced: "coalesced"} {
		if got := st.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", st, got, want)
		}
	}
}
