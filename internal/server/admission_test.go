package server

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlgraph/internal/core"
)

// TestAdmissionBasic: slots are granted up to the limit, the queue
// absorbs the next wave, and everything past that is rejected
// immediately.
func TestAdmissionBasic(t *testing.T) {
	a := newAdmission(2, 1)
	ctx := context.Background()
	if err := a.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := a.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if got := a.InFlight(); got != 2 {
		t.Fatalf("inflight: %d", got)
	}
	// Third caller queues; fourth is rejected.
	queued := make(chan error, 1)
	go func() { queued <- a.Acquire(ctx) }()
	waitFor(t, func() bool { return a.Queued() == 1 })
	if err := a.Acquire(ctx); !errors.Is(err, ErrSaturated) {
		t.Fatalf("want ErrSaturated, got %v", err)
	}
	a.Release()
	if err := <-queued; err != nil {
		t.Fatalf("queued caller: %v", err)
	}
	if got := a.InFlight(); got != 2 {
		t.Fatalf("inflight after handoff: %d", got)
	}
	a.Release()
	a.Release()
	if got := a.InFlight(); got != 0 {
		t.Fatalf("inflight after drain: %d", got)
	}
}

// TestAdmissionFIFO: queued waiters are granted strictly in arrival
// order as slots free up.
func TestAdmissionFIFO(t *testing.T) {
	const waiters = 8
	a := newAdmission(1, waiters)
	ctx := context.Background()
	if err := a.Acquire(ctx); err != nil {
		t.Fatal(err)
	}

	order := make(chan int, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		// Enqueue one at a time so arrival order is deterministic.
		wg.Add(1)
		ready := make(chan struct{})
		go func(i int) {
			defer wg.Done()
			close(ready)
			if err := a.Acquire(ctx); err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			order <- i
			a.Release()
		}(i)
		<-ready
		waitFor(t, func() bool { return a.Queued() == i+1 })
	}

	a.Release() // start the chain: each waiter releases to the next
	wg.Wait()
	close(order)
	want := 0
	for got := range order {
		if got != want {
			t.Fatalf("FIFO violated: got waiter %d, want %d", got, want)
		}
		want++
	}
	if a.InFlight() != 0 {
		t.Fatalf("inflight after drain: %d", a.InFlight())
	}
}

// TestAdmissionContextCancelWhileQueued: a waiter that gives up leaves
// the queue without consuming a slot or blocking later grants.
func TestAdmissionContextCancelWhileQueued(t *testing.T) {
	a := newAdmission(1, 4)
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- a.Acquire(ctx) }()
	waitFor(t, func() bool { return a.Queued() == 1 })
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	waitFor(t, func() bool { return a.Queued() == 0 })
	a.Release()
	if a.InFlight() != 0 {
		t.Fatalf("inflight: %d", a.InFlight())
	}
	// The slot is usable again.
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	a.Release()
}

// TestAdmissionShutdown: Close rejects new arrivals and queued waiters
// but lets admitted work finish.
func TestAdmissionShutdown(t *testing.T) {
	a := newAdmission(1, 4)
	if err := a.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() { queued <- a.Acquire(context.Background()) }()
	waitFor(t, func() bool { return a.Queued() == 1 })

	a.Close()
	if err := <-queued; !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("queued waiter during shutdown: want ErrShuttingDown, got %v", err)
	}
	if err := a.Acquire(context.Background()); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("new arrival during shutdown: want ErrShuttingDown, got %v", err)
	}
	// The admitted request completes normally.
	a.Release()
	if a.InFlight() != 0 {
		t.Fatalf("inflight after release: %d", a.InFlight())
	}
}

// TestSaturation429 drives admission end-to-end over HTTP: with one
// slot and no queue, a request blocked behind a held table lock
// saturates the server, and the next request gets 429 + Retry-After.
func TestSaturation429(t *testing.T) {
	env := newTestEnv(t, Config{MaxInFlight: 1, MaxQueue: 1})

	// Occupy the single slot with a mutation blocked on a table lock.
	tx, err := env.store.Catalog().Begin([]string{core.TableVA}, nil)
	if err != nil {
		t.Fatal(err)
	}
	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		env.doJSON(t, "POST", "/vertex?timeout_ms=3000", vertexBody{ID: 77})
	}()
	waitFor(t, func() bool { return env.srv.InFlight() == 1 })

	// Second request fills the queue (it will block), third gets 429.
	queuedDone := make(chan struct{})
	go func() {
		defer close(queuedDone)
		env.doJSON(t, "POST", "/query?timeout_ms=3000", map[string]any{"gremlin": "g.V.count"})
	}()
	waitFor(t, func() bool { return env.srv.adm.Queued() == 1 })

	req, _ := http.NewRequest("POST", env.ts.URL+"/query", strings.NewReader(`{"gremlin":"g.V.count"}`))
	resp, err := env.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("want 429, got %d", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After: %q", ra)
	}

	tx.Rollback() // unblock; the queued query drains FIFO afterwards
	<-blocked
	<-queuedDone
	waitFor(t, func() bool { return env.srv.InFlight() == 0 })
}

// waitFor polls until cond is true or the test deadline passes.
func waitFor(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
