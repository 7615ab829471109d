package wal

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sqlgraph/internal/faultinject"
)

// TestCommitConcurrentWriters is the -race durability contract: N
// writers append and commit concurrently, every Commit return means the
// record's LSN is covered by a durable flush, and recovery sees every
// record in LSN order. (How many fsyncs the writers share depends on the
// scheduler; TestCommitsDuringFlushShareOneFsync pins it exactly.)
func TestCommitConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				lsn, err := l.Append(Record{Op: OpAddVertex, ID: int64(w*perWriter + i)})
				if err != nil {
					errs <- err
					return
				}
				if _, err := l.Commit(lsn); err != nil {
					errs <- err
					return
				}
				if durable := l.DurableLSN(); durable < lsn {
					errs <- errors.New("Commit returned with DurableLSN behind the committed record")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	total := writers * perWriter
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Records) != total {
		t.Fatalf("recovered %d records, want %d", len(st.Records), total)
	}
	for i, r := range st.Records {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d, want consecutive from 1", i, r.LSN)
		}
	}
}

// TestCommitKillMidBatchFsync crashes the log partway through a
// shared flush: committers racing that flush either return durable or
// fail with the injected error, and recovery yields a consecutive-LSN
// prefix — never a gap, never a torn mid-log record accepted as valid.
func TestCommitKillMidBatchFsync(t *testing.T) {
	for _, limit := range []int{0, 1, 37, 150, 400} {
		dir := t.TempDir()
		l, _, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		l.SetWriteHook(faultinject.ByteLimit(limit))

		const writers, perWriter = 4, 20
		var wg sync.WaitGroup
		var durableMax atomic.Uint64
		var failed atomic.Int64
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					lsn, err := l.Append(Record{Op: OpAddVertex, ID: int64(w*perWriter + i)})
					if err != nil {
						failed.Add(1)
						return
					}
					if _, err := l.Commit(lsn); err != nil {
						failed.Add(1)
						return
					}
					// This record is promised durable; remember the highest
					// such promise to check against recovery.
					for {
						cur := durableMax.Load()
						if lsn <= cur || durableMax.CompareAndSwap(cur, lsn) {
							break
						}
					}
				}
			}(w)
		}
		wg.Wait()
		if failed.Load() == 0 {
			t.Fatalf("limit %d: no writer observed the injected crash", limit)
		}
		// The crashed log is abandoned, like a dead process.
		st, err := Recover(dir)
		if err != nil {
			t.Fatalf("limit %d: recover: %v", limit, err)
		}
		for i, r := range st.Records {
			if r.LSN != uint64(i+1) {
				t.Fatalf("limit %d: record %d has LSN %d, want consecutive prefix", limit, i, r.LSN)
			}
		}
		if promised := durableMax.Load(); uint64(len(st.Records)) < promised {
			t.Fatalf("limit %d: Commit promised durability through LSN %d but only %d records recovered",
				limit, promised, len(st.Records))
		}
	}
}

// TestCommitPiggybacksOnCoveringFlush pins the cross-writer amortization
// of the commit pipeline: a flush led by one committer covers
// every record appended before it, so the other committers return
// without a second fsync.
func TestCommitPiggybacksOnCoveringFlush(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var fsyncs atomic.Int64
	l.SetSyncObserver(func(time.Duration, int) { fsyncs.Add(1) })

	lsn1, err := l.Append(Record{Op: OpAddVertex, ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	lsn2, err := l.Append(Record{Op: OpAddVertex, ID: 2})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := l.Commit(lsn2)
	if err != nil {
		t.Fatal(err)
	}
	if batch != 2 {
		t.Fatalf("leading flush covered %d records, want 2", batch)
	}
	if _, err := l.Commit(lsn1); err != nil {
		t.Fatal(err)
	}
	if got := fsyncs.Load(); got != 1 {
		t.Fatalf("two commits cost %d fsyncs, want 1", got)
	}
	if l.DurableLSN() != lsn2 {
		t.Fatalf("DurableLSN = %d, want %d", l.DurableLSN(), lsn2)
	}
}

// TestCommitsDuringFlushShareOneFsync pins the amortization deterministically:
// while one committer's flush is held inside its write, seven more
// committers append and wait. The first of them to find the flush done
// leads one flush for all seven, so the eight commits cost exactly two
// fsyncs, and each Commit returns with its record durable.
func TestCommitsDuringFlushShareOneFsync(t *testing.T) {
	l, _, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var fsyncs atomic.Int64
	l.SetSyncObserver(func(time.Duration, int) { fsyncs.Add(1) })
	entered, release := make(chan struct{}), make(chan struct{})
	var first sync.Once
	l.SetWriteHook(func(p []byte) (int, error) {
		first.Do(func() {
			close(entered)
			<-release
		})
		return len(p), nil
	})

	const followers = 7
	batches := make(chan int, followers+1)
	var wg sync.WaitGroup
	commit := func(id int64, appended chan<- struct{}) {
		defer wg.Done()
		lsn, err := l.Append(Record{Op: OpAddVertex, ID: id})
		if appended != nil {
			appended <- struct{}{}
		}
		if err != nil {
			t.Error(err)
			return
		}
		batch, err := l.Commit(lsn)
		if err != nil {
			t.Error(err)
			return
		}
		if durable := l.DurableLSN(); durable < lsn {
			t.Errorf("Commit(%d) returned with DurableLSN %d", lsn, durable)
		}
		batches <- batch
	}
	wg.Add(1)
	go commit(0, nil)
	<-entered // the leader's flush is swapped out and held in its write
	appended := make(chan struct{})
	for i := int64(1); i <= followers; i++ {
		wg.Add(1)
		go commit(i, appended)
		<-appended
	}
	close(release)
	wg.Wait()
	close(batches)

	if got := fsyncs.Load(); got != 2 {
		t.Fatalf("%d commits cost %d fsyncs, want 2", followers+1, got)
	}
	counts := map[int]int{}
	for b := range batches {
		counts[b]++
	}
	if counts[1] != 1 || counts[followers] != followers {
		t.Fatalf("commits observed flush sizes %v, want one of 1 and %d of %d", counts, followers, followers)
	}
}
