package exec

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestSubmitRunsAndWait(t *testing.T) {
	sub := New(4).Submitter()
	if sub.Cap() != 3 {
		t.Fatalf("Cap = %d, want workers-1 = 3", sub.Cap())
	}
	f := Submit(sub, func() (int, error) { return 42, nil })
	v, err, ok := f.Wait()
	if !ok || err != nil || v != 42 {
		t.Fatalf("Wait = (%v, %v, %v), want (42, nil, true)", v, err, ok)
	}
	// Errors pass through.
	boom := errors.New("boom")
	f2 := Submit(sub, func() (int, error) { return 0, boom })
	if _, err, ok := f2.Wait(); !ok || !errors.Is(err, boom) {
		t.Fatalf("error not delivered: err=%v ok=%v", err, ok)
	}
}

func TestSequentialPoolDisablesSubmission(t *testing.T) {
	for _, p := range []*Pool{nil, Sequential(), New(1)} {
		if sub := p.Submitter(); sub != nil {
			t.Errorf("pool %+v: Submitter = %v, want nil", p, sub)
		}
	}
	var nilSub *Submitter
	if nilSub.Cap() != 0 {
		t.Error("nil submitter has capacity")
	}
	f := Submit(nilSub, func() (int, error) { t.Error("fn ran on nil submitter"); return 0, nil })
	if f != nil {
		t.Fatal("Submit on nil submitter returned a future")
	}
	// A nil future behaves as already-cancelled.
	if _, _, ok := f.Wait(); ok {
		t.Error("nil future Wait reported ok")
	}
	if !f.Cancel() {
		t.Error("nil future Cancel = false")
	}
}

func TestCancelQueuedFutureNeverRuns(t *testing.T) {
	sub := New(2).Submitter() // capacity 1
	block := make(chan struct{})
	started := make(chan struct{})
	slow := Submit(sub, func() (int, error) { close(started); <-block; return 1, nil })
	<-started // the single slot is now held
	ran := false
	queued := Submit(sub, func() (int, error) { ran = true; return 2, nil })
	if !queued.Cancel() {
		t.Fatal("Cancel on a queued future = false")
	}
	if !queued.Cancel() {
		t.Error("Cancel not idempotent")
	}
	if _, _, ok := queued.Wait(); ok {
		t.Error("cancelled future Wait reported ok")
	}
	close(block)
	if _, _, ok := slow.Wait(); !ok {
		t.Error("running future lost its result")
	}
	if ran {
		t.Error("cancelled future executed anyway")
	}
}

func TestCancelAfterStartKeepsResult(t *testing.T) {
	sub := New(2).Submitter()
	started := make(chan struct{})
	release := make(chan struct{})
	f := Submit(sub, func() (int, error) { close(started); <-release; return 7, nil })
	<-started
	if f.Cancel() {
		t.Fatal("Cancel claimed to prevent a running future")
	}
	close(release)
	if v, _, ok := f.Wait(); !ok || v != 7 {
		t.Fatalf("Wait = (%v, ok=%v) after failed Cancel", v, ok)
	}
}

func TestSubmitterBoundsConcurrency(t *testing.T) {
	const capacity = 2
	sub := New(capacity + 1).Submitter()
	var cur, max atomic.Int64
	var wg sync.WaitGroup
	futs := make([]*Future[struct{}], 0, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		futs = append(futs, Submit(sub, func() (struct{}, error) {
			defer wg.Done()
			n := cur.Add(1)
			for {
				m := max.Load()
				if n <= m || max.CompareAndSwap(m, n) {
					break
				}
			}
			cur.Add(-1)
			return struct{}{}, nil
		}))
	}
	wg.Wait()
	for _, f := range futs {
		f.Wait()
	}
	if got := max.Load(); got > capacity {
		t.Fatalf("%d submissions ran concurrently, capacity %d", got, capacity)
	}
}
