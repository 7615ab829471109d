// Command sqlgraphd serves a sqlgraph store over HTTP: Gremlin queries,
// SQL translation, point reads, mutations, statistics, and health, with
// admission control, per-request deadlines, MVCC snapshot sessions, and
// graceful drain on SIGINT/SIGTERM.
//
// Usage:
//
//	sqlgraphd [-addr :8080] [-dir path] [-dataset sample|dbpedia] [-scale tiny|small|medium]
//	          [-replica-of addr] [-inflight 64] [-queue 64] [-timeout 30s] [-session-ttl 60s]
//	          [-max-body 1048576] [-parallel N] [-slow-query 250ms]
//	          [-trace-buffer 128] [-sample-interval 1s] [-sample-retention 600]
//	          [-event-buffer 256] [-pprof] [-log-json]
//
// With -dir the daemon opens (or creates) a durable store there; without
// it, the selected dataset is built in memory (sample = the paper's
// Figure 2a graph — handy for the quickstart). A mutation is durable when
// its response is sent: writers that commit while an fsync runs share
// the next one.
//
// With -replica-of the daemon runs as a read-only follower: it
// bootstraps from the primary's /snapshot into -dir (required), tails
// the primary's /wal stream with checksum verification and
// backoff-capped reconnects, and serves reads from its own durable
// copy. Mutations are refused with 421 pointing at the primary.
// /healthz and /metrics expose role, applied LSN, and staleness.
//
// Endpoints (all JSON):
//
//	GET  /healthz               liveness
//	GET  /metrics               Prometheus text metrics
//	GET  /stats                 schema statistics, sizes, pin counts
//	GET  /check                 online graph fsck
//	POST /query                 {"gremlin": "...", "session": "...", "explain": true}
//	POST /translate             {"gremlin": "..."}
//	POST /sessions              pin a snapshot session (TTL lease)
//	GET|DELETE /sessions/{id}   inspect / close a session
//	GET  /vertex/{id}[/out|/in] point reads (?session=ID reads a session snapshot)
//	GET  /edge/{id}
//	POST /vertex, /edge         insert
//	POST /batch                 {"ops":[{"op":"add_vertex",...},...]} — one writer txn + one fsync
//	DELETE /vertex/{id}, /edge/{id}
//	PATCH /vertex/{id}/attrs    {"set": {...}, "remove": [...]}
//	PATCH /edge/{id}/attrs
//	POST /admin/vacuum          reclaim soft-deleted rows
//	POST /admin/checkpoint      snapshot + truncate the WAL (durable stores)
//	GET  /debug/queries[/{id}]  recent / slow query traces (?format=text)
//	GET  /debug/events          lifecycle event journal (?format=text)
//	GET  /debug/history         sampled metrics ring (?window=5m)
//	GET  /debug/pprof/          Go profiling endpoints (only with -pprof)
//
// Logging is structured (log/slog): one summary line per HTTP request
// with method, path, status, duration, trace id, and admission wait,
// plus slow-query warnings above the -slow-query threshold. -log-json
// switches from the human text handler to JSON lines.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"sqlgraph/internal/bench/dbpedia"
	"sqlgraph/internal/bench/experiments"
	"sqlgraph/internal/blueprints"
	"sqlgraph/internal/core"
	"sqlgraph/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dir := flag.String("dir", "", "durable store directory (empty = in-memory dataset)")
	replicaOf := flag.String("replica-of", "", "primary address to follow (read-only replica mode; requires -dir)")
	dataset := flag.String("dataset", "sample", "in-memory dataset: sample (paper Figure 2a) or dbpedia")
	scale := flag.String("scale", "tiny", "dbpedia dataset scale: tiny, small, medium")
	inflight := flag.Int("inflight", 64, "max concurrently executing requests")
	queue := flag.Int("queue", 0, "max requests queued for admission (0 = same as -inflight)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request deadline")
	sessionTTL := flag.Duration("session-ttl", 60*time.Second, "snapshot session lease; each use renews it")
	maxBody := flag.Int64("max-body", 1<<20, "request body size cap in bytes")
	parallel := flag.Int("parallel", 0, "executor worker cap per query: 0 = GOMAXPROCS, 1 = serial")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown drain budget")
	slowQuery := flag.Duration("slow-query", 250*time.Millisecond, "slow-query log threshold (negative disables)")
	traceBuffer := flag.Int("trace-buffer", 128, "recent traces retained per kind at /debug/queries")
	sampleInterval := flag.Duration("sample-interval", time.Second, "metrics history sampler cadence for /debug/history and `sqlgraph top` (negative disables)")
	sampleRetention := flag.Int("sample-retention", 0, "history samples retained (0 = default 600, i.e. 10 minutes at 1s)")
	eventBuffer := flag.Int("event-buffer", 0, "lifecycle events retained at /debug/events (0 = default 256)")
	enablePprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	logJSON := flag.Bool("log-json", false, "emit JSON log lines instead of text")
	flag.Parse()

	var handler slog.Handler
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	} else {
		handler = slog.NewTextHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)
	slog.SetDefault(logger)
	fatal := func(msg string, err error) {
		logger.Error(msg, slog.Any("error", err))
		os.Exit(1)
	}

	var store *core.Store
	var rep *server.Replicator
	if *replicaOf != "" {
		if *dir == "" {
			fatal("replica mode", errors.New("-replica-of requires -dir for the follower's durable copy"))
		}
		bootCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		var err error
		rep, err = server.NewReplicator(bootCtx, server.ReplicaConfig{
			Primary: *replicaOf,
			Dir:     *dir,
			Logger:  logger,
		})
		cancel()
		if err != nil {
			fatal("replica bootstrap", err)
		}
		store = rep.Store()
	} else {
		var err error
		store, err = openStore(*dir, *dataset, *scale)
		if err != nil {
			fatal("open store", err)
		}
	}
	store.SetParallelism(*parallel)

	srv := server.New(store, server.Config{
		MaxInFlight:     *inflight,
		MaxQueue:        *queue,
		RequestTimeout:  *timeout,
		SessionTTL:      *sessionTTL,
		MaxBodyBytes:    *maxBody,
		Logger:          logger,
		SlowQuery:       *slowQuery,
		TraceBuffer:     *traceBuffer,
		SampleInterval:  *sampleInterval,
		SampleRetention: *sampleRetention,
		EventBuffer:     *eventBuffer,
		EnablePprof:     *enablePprof,
	})
	if rep != nil {
		srv.AttachReplica(rep)
		rep.Start()
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	role := "primary"
	if rep != nil {
		role = "replica of " + rep.PrimaryURL()
	}
	go func() {
		logger.Info("sqlgraphd listening",
			slog.String("addr", *addr),
			slog.String("role", role),
			slog.Int("vertices", store.CountVertices()),
			slog.Int("edges", store.CountEdges()),
			slog.Bool("pprof", *enablePprof))
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal("listen", err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Info("shutting down: draining in-flight requests", slog.Duration("budget", *drain))

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop accepting connections first, then drain the serving layer
	// (admitted work, sessions, snapshot pins), then close the store.
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Error("http shutdown", slog.Any("error", err))
	}
	if err := srv.Close(ctx); err != nil {
		logger.Error("drain", slog.Any("error", err))
	}
	if rep != nil {
		rep.Stop()
		store = rep.Store()        // a resync may have swapped the live store
		store.WaitCheckpointIdle() // records applied since the drain may have started a checkpoint, which pins
	}
	if pins := store.PinnedSnapshots(); pins != 0 {
		logger.Warn("snapshot pins leaked", slog.Int("pins", pins))
	}
	if err := store.Close(); err != nil {
		fatal("store close", err)
	}
	logger.Info("sqlgraphd stopped")
}

// openStore opens the durable directory (seeding a fresh one with the
// named dataset) or builds the dataset in memory when no -dir is given.
func openStore(dir, dataset, scale string) (*core.Store, error) {
	var opts core.Options
	if dir != "" {
		if _, err := os.Stat(filepath.Join(dir, "wal.log")); err == nil {
			return core.Open(core.Options{Dir: dir})
		}
		if _, err := os.Stat(filepath.Join(dir, "snapshot.db")); err == nil {
			return core.Open(core.Options{Dir: dir})
		}
		opts.Dir = dir // fresh directory: bulk-load the dataset into it
	}
	switch dataset {
	case "sample":
		return core.Load(blueprints.Figure2a(), opts)
	case "dbpedia":
		s, err := experiments.ParseScale(scale)
		if err != nil {
			return nil, err
		}
		d, err := dbpedia.Generate(experiments.DBpediaConfig(s))
		if err != nil {
			return nil, err
		}
		return core.Load(d.Graph, opts)
	default:
		return nil, fmt.Errorf("unknown dataset %q (want sample or dbpedia)", dataset)
	}
}
