package trace

import (
	"log/slog"
	"sort"
	"sync/atomic"
	"time"
)

// Ring is a lock-free bounded buffer of finished traces: writers claim a
// slot with one atomic add and publish with one atomic pointer store, so
// recording never contends with readers or other writers. The sequence
// number lives in the slot entry, not the trace, so one trace can sit in
// several rings (recent + slow) without Add mutating shared state.
type Ring struct {
	slots []atomic.Pointer[ringEntry]
	seq   atomic.Uint64
}

type ringEntry struct {
	seq uint64
	t   *Trace
}

// NewRing creates a ring retaining the last n traces.
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{slots: make([]atomic.Pointer[ringEntry], n)}
}

// Add publishes a finished trace, evicting the oldest when full. The
// trace must not be mutated after Add.
func (r *Ring) Add(t *Trace) {
	seq := r.seq.Add(1)
	r.slots[(seq-1)%uint64(len(r.slots))].Store(&ringEntry{seq: seq, t: t})
}

// Snapshot returns the retained traces, newest first. Concurrent Adds
// may or may not be observed; every returned trace is fully published.
func (r *Ring) Snapshot() []*Trace {
	entries := make([]*ringEntry, 0, len(r.slots))
	for i := range r.slots {
		if e := r.slots[i].Load(); e != nil {
			entries = append(entries, e)
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].seq > entries[j].seq })
	out := make([]*Trace, len(entries))
	for i, e := range entries {
		out[i] = e.t
	}
	return out
}

// Get returns the newest retained trace with the given id, or nil.
func (r *Ring) Get(id string) *Trace {
	var best *ringEntry
	for i := range r.slots {
		if e := r.slots[i].Load(); e != nil && e.t.ID == id {
			if best == nil || e.seq > best.seq {
				best = e
			}
		}
	}
	if best == nil {
		return nil
	}
	return best.t
}

// DefaultSlowThreshold is the slow-query threshold when none is set.
const DefaultSlowThreshold = 250 * time.Millisecond

// DefaultRingSize is the per-kind trace retention when none is set.
const DefaultRingSize = 128

// Recorder retains recent traces per kind plus a slow log, and keeps the
// write-path counters (WAL appends, fsyncs, checkpoints, vacuums) the
// metrics endpoint exposes. All methods are safe for concurrent use. The
// rings sit behind atomic pointers so retention can be resized after
// construction (SetRingSize) without locking the record path.
type Recorder struct {
	queries atomic.Pointer[Ring]
	writes  atomic.Pointer[Ring]
	slow    atomic.Pointer[Ring]

	slowNs    atomic.Int64
	slowCount atomic.Uint64
	logger    atomic.Pointer[slog.Logger]
	slowObs   atomic.Pointer[func(*Trace)]

	walAppends       atomic.Uint64
	walAppendNs      atomic.Int64
	walFsyncs        atomic.Uint64
	walFsyncNs       atomic.Int64
	walFsyncLat      [len(FsyncLatencyBuckets) + 1]atomic.Uint64
	walFlushRecs     atomic.Uint64
	walFlushSizes    [len(FlushBatchBuckets) + 1]atomic.Uint64
	checkpoints      atomic.Uint64
	checkpointNs     atomic.Int64
	checkpointExclNs atomic.Int64
	checkpointErrs   atomic.Uint64
	vacuums          atomic.Uint64
	vacuumNs         atomic.Int64
}

// FlushBatchBuckets are the upper bounds (inclusive) of the
// records-per-fsync histogram; flushes larger than the last bound land in
// a +Inf overflow bucket. Exported so /metrics renders matching `le`
// labels.
var FlushBatchBuckets = [...]uint64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// FsyncLatencyBuckets are the upper bounds (inclusive, in seconds) of the
// group-commit flush-latency histogram; slower fsyncs land in a +Inf
// overflow bucket. Exported so /metrics renders matching `le` labels.
var FsyncLatencyBuckets = [...]float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25}

// NewRecorder creates a recorder retaining n traces per kind (0 = the
// default) with the given slow threshold (0 = the default, negative =
// slow logging disabled).
func NewRecorder(n int, slowThreshold time.Duration) *Recorder {
	r := &Recorder{}
	r.SetRingSize(n)
	r.SetSlowThreshold(slowThreshold)
	return r
}

// SetRingSize replaces the trace rings with fresh ones retaining n
// traces per kind (0 restores the default). Previously retained traces
// are discarded; in-flight Records land in whichever generation of ring
// they loaded, so nothing blocks and nothing tears.
func (r *Recorder) SetRingSize(n int) {
	if n <= 0 {
		n = DefaultRingSize
	}
	r.queries.Store(NewRing(n))
	r.writes.Store(NewRing(n))
	r.slow.Store(NewRing(n))
}

// SetSlowThreshold changes the slow-trace threshold (0 restores the
// default, negative disables slow capture).
func (r *Recorder) SetSlowThreshold(d time.Duration) {
	if d == 0 {
		d = DefaultSlowThreshold
	}
	r.slowNs.Store(d.Nanoseconds())
}

// SlowThreshold reports the active threshold (negative = disabled).
func (r *Recorder) SlowThreshold() time.Duration {
	return time.Duration(r.slowNs.Load())
}

// SetLogger attaches a structured logger for slow-trace log lines.
func (r *Recorder) SetLogger(l *slog.Logger) { r.logger.Store(l) }

// SetSlowObserver installs a hook invoked (synchronously, after ring
// publication) for every trace crossing the slow threshold. Used to feed
// slow queries into the lifecycle event journal. Pass nil to clear.
func (r *Recorder) SetSlowObserver(fn func(*Trace)) {
	if fn == nil {
		r.slowObs.Store(nil)
		return
	}
	r.slowObs.Store(&fn)
}

// Record publishes a finished trace: queries and writes land in their
// rings; anything over the slow threshold is additionally retained in
// the slow ring, counted, and logged. The Slow flag is set before the
// trace is published to any ring, so readers never observe a mutation.
func (r *Recorder) Record(t *Trace) {
	if t == nil {
		return
	}
	slow := false
	if thresh := r.slowNs.Load(); thresh >= 0 && t.DurNs >= thresh {
		t.Slow = true
		slow = true
	}
	if t.Kind == "write" {
		r.writes.Load().Add(t)
	} else {
		r.queries.Load().Add(t)
	}
	if slow {
		r.slow.Load().Add(t)
		r.slowCount.Add(1)
		if l := r.logger.Load(); l != nil {
			l.Warn("slow "+t.Kind,
				slog.String("trace_id", t.ID),
				slog.String("name", t.Name),
				slog.Duration("dur", t.Duration()),
				slog.String("error", t.Err))
		}
		if obs := r.slowObs.Load(); obs != nil {
			(*obs)(t)
		}
	}
}

// Queries returns the retained query traces, newest first.
func (r *Recorder) Queries() []*Trace { return r.queries.Load().Snapshot() }

// Writes returns the retained write traces, newest first.
func (r *Recorder) Writes() []*Trace { return r.writes.Load().Snapshot() }

// Slow returns the retained slow traces, newest first.
func (r *Recorder) Slow() []*Trace { return r.slow.Load().Snapshot() }

// SlowCount reports how many traces crossed the slow threshold.
func (r *Recorder) SlowCount() uint64 { return r.slowCount.Load() }

// Get finds a retained trace by id (queries, then writes, then slow).
func (r *Recorder) Get(id string) *Trace {
	if t := r.queries.Load().Get(id); t != nil {
		return t
	}
	if t := r.writes.Load().Get(id); t != nil {
		return t
	}
	return r.slow.Load().Get(id)
}

// ObserveWALAppend charges one WAL buffer append.
func (r *Recorder) ObserveWALAppend(d time.Duration) {
	r.walAppends.Add(1)
	r.walAppendNs.Add(d.Nanoseconds())
}

// ObserveWALFsync charges one group-commit flush+fsync, bucketing its
// latency into the FsyncLatencyBuckets histogram.
func (r *Recorder) ObserveWALFsync(d time.Duration) {
	r.walFsyncs.Add(1)
	r.walFsyncNs.Add(d.Nanoseconds())
	sec := d.Seconds()
	i := 0
	for i < len(FsyncLatencyBuckets) && sec > FsyncLatencyBuckets[i] {
		i++
	}
	r.walFsyncLat[i].Add(1)
}

// ObserveWALFlush records how many records one physical flush+fsync
// covered (the group-commit batch size).
func (r *Recorder) ObserveWALFlush(records int) {
	if records <= 0 {
		return
	}
	r.walFlushRecs.Add(uint64(records))
	i := 0
	for i < len(FlushBatchBuckets) && uint64(records) > FlushBatchBuckets[i] {
		i++
	}
	r.walFlushSizes[i].Add(1)
}

// ObserveCheckpoint charges one finished checkpoint (snapshot dump + log
// swap): its whole duration, most of which runs beside the writers, the
// part of it during which writers were excluded, and its outcome.
func (r *Recorder) ObserveCheckpoint(d, exclusive time.Duration, err error) {
	r.checkpoints.Add(1)
	r.checkpointNs.Add(d.Nanoseconds())
	r.checkpointExclNs.Add(exclusive.Nanoseconds())
	if err != nil {
		r.checkpointErrs.Add(1)
	}
}

// ObserveVacuum charges one vacuum pass.
func (r *Recorder) ObserveVacuum(d time.Duration) {
	r.vacuums.Add(1)
	r.vacuumNs.Add(d.Nanoseconds())
}

// WriteStats is a snapshot of the write-path counters.
type WriteStats struct {
	WALAppends  uint64
	WALAppendNs int64
	WALFsyncs   uint64
	WALFsyncNs  int64
	// WALFsyncLatencies counts fsyncs per latency bucket: index i counts
	// flushes completing within FsyncLatencyBuckets[i] seconds, the final
	// index anything slower (+Inf).
	WALFsyncLatencies [len(FsyncLatencyBuckets) + 1]uint64
	// WALFlushRecords is the total records covered by all fsyncs;
	// WALFlushRecords/WALFsyncs is the mean group-commit batch size.
	WALFlushRecords uint64
	// WALFlushSizes counts flushes per batch-size bucket: index i counts
	// flushes of at most FlushBatchBuckets[i] records, the final index
	// anything larger (+Inf).
	WALFlushSizes [len(FlushBatchBuckets) + 1]uint64
	Checkpoints   uint64
	CheckpointNs  int64
	// CheckpointExclusiveNs is the part of CheckpointNs during which
	// writers could not proceed: the pin section and the install section.
	CheckpointExclusiveNs int64
	// CheckpointErrors counts checkpoints that failed. An automatic
	// checkpoint's error reaches no caller, only this and the journal.
	CheckpointErrors uint64
	Vacuums          uint64
	VacuumNs         int64
}

// WriteStats returns the current write-path counters.
func (r *Recorder) WriteStats() WriteStats {
	st := WriteStats{
		WALAppends:            r.walAppends.Load(),
		WALAppendNs:           r.walAppendNs.Load(),
		WALFsyncs:             r.walFsyncs.Load(),
		WALFsyncNs:            r.walFsyncNs.Load(),
		WALFlushRecords:       r.walFlushRecs.Load(),
		Checkpoints:           r.checkpoints.Load(),
		CheckpointNs:          r.checkpointNs.Load(),
		CheckpointExclusiveNs: r.checkpointExclNs.Load(),
		CheckpointErrors:      r.checkpointErrs.Load(),
		Vacuums:               r.vacuums.Load(),
		VacuumNs:              r.vacuumNs.Load(),
	}
	for i := range r.walFlushSizes {
		st.WALFlushSizes[i] = r.walFlushSizes[i].Load()
	}
	for i := range r.walFsyncLat {
		st.WALFsyncLatencies[i] = r.walFsyncLat[i].Load()
	}
	return st
}
