// Command dswpd is the pipeline-as-a-service daemon: it serves DSWP
// compilation and execution over HTTP, backed by the internal/engine
// subsystem — compiled-pipeline cache, warm instance pools, and bounded
// admission control.
//
//	dswpd                      # listen on :7537
//	dswpd -addr :8080 -workers 4 -queue ring
//
// Endpoints (all JSON, stdlib net/http):
//
//	POST /run                 {"workload":"181.mcf", ...}   execute a pipeline
//	GET  /metrics             serving counters + latency histograms (JSON;
//	                          Prometheus text under Accept negotiation)
//	GET  /healthz             liveness (503 while draining)
//	GET  /workloads           workloads with compile/breaker status
//	GET  /debug/requests      tail-sampled request traces (and /{id})
//	GET  /debug/vars          windowed time-series + per-workload profiles
//
// /metrics (both formats) and /debug/vars encode one snapshot of the
// engine's one metrics home, engine.Metrics.
//
// -debug-addr opens a second listener carrying the same debug surface
// plus net/http/pprof — profiling stays off the serving port.
//
// SIGINT/SIGTERM trigger a graceful drain: the listener stops accepting,
// queued requests fail with 503, and in-flight runs get -drain-timeout
// to finish before being hard-canceled through their contexts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dswp/internal/ckptstore"
	"dswp/internal/engine"
	"dswp/internal/queue"
	rt "dswp/internal/runtime"
	"dswp/internal/telemetry"
)

func main() {
	var (
		addr       = flag.String("addr", ":7537", "listen address")
		workers    = flag.Int("workers", 0, "concurrent pipeline runs (0 = GOMAXPROCS)")
		queueDepth = flag.Int("queue-depth", 0, "pending-request bound (0 = 4*workers)")
		cacheCap   = flag.Int("cache-cap", 32, "max cached compiled pipelines")
		poolSize   = flag.Int("pool", 0, "warm instances per pipeline (0 = workers)")
		queueKind  = flag.String("queue", "channel", "queue substrate of every served run: channel or ring")
		replicate  = flag.Bool("replicate", false, "apply PS-DSWP parallel-stage replication to every compile")
		queueCap   = flag.Int("queue-cap", 0, fmt.Sprintf("synchronization-array capacity of every served run (0 = %d)", rt.DefaultQueueCap))
		deadline   = flag.Duration("deadline", 30*time.Second, "default per-request deadline")
		drain      = flag.Duration("drain-timeout", 15*time.Second, "graceful-shutdown grace for in-flight runs")
		ckptDir    = flag.String("ckpt-dir", "", "directory for the durable checkpoint store (empty = in-memory)")
		ckptEvery  = flag.Int64("ckpt-every", 0, "checkpoint commit period in iterations (0 = 64)")
		breakerK   = flag.Int("breaker-k", 0, "consecutive failures tripping a workload to sequential (0 = 3, negative disables)")
		breakerCD  = flag.Duration("breaker-cooldown", 0, "open-breaker cooldown before a half-open probe (0 = 5s)")

		maxBody       = flag.Int64("max-body", 0, "max /run request-body bytes (0 = 1MiB, negative disables)")
		maxInflightB  = flag.Int64("max-inflight-bytes", 256<<20, "global in-flight run working-set budget in bytes (0 = unlimited)")
		maxRequestB   = flag.Int64("max-request-bytes", 64<<20, "per-run working-set cap in bytes (0 = unlimited)")
		reapAfter     = flag.Duration("reap-after", 60*time.Second, "force-cancel runs executing longer than this (0 = disabled)")
		readHeaderTmo = flag.Duration("read-header-timeout", 5*time.Second, "HTTP header read timeout (slow-loris guard)")
		readTmo       = flag.Duration("read-timeout", 30*time.Second, "HTTP full-request read timeout (slow-body guard)")
		writeTmo      = flag.Duration("write-timeout", 2*time.Minute, "HTTP response write timeout (slow-client guard)")

		debugAddr   = flag.String("debug-addr", "", "second listener with the debug surface + net/http/pprof (empty = off)")
		noTelemetry = flag.Bool("no-telemetry", false, "disable request tracing (windowed series stay on)")
		traceCap    = flag.Int("trace-cap", 0, "retained request traces (0 = 256)")
		traceSample = flag.Float64("trace-sample", 0, "fraction of ordinary requests tail-sampled (0 = 0.01, negative disables)")
		traceSlow   = flag.Duration("trace-slow", 0, "latency above which every request's trace is kept (0 = 50ms, negative disables)")
	)
	flag.Parse()

	kind, err := queue.ParseKind(*queueKind)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dswpd: %v\n", err)
		os.Exit(2)
	}
	var store ckptstore.Store
	if *ckptDir != "" {
		fs, err := ckptstore.OpenFile(*ckptDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dswpd: %v\n", err)
			os.Exit(2)
		}
		// Durability-degrade events (a key's commits disabled after
		// ENOSPC or a failed fsync) are operator-visible, one line each.
		fs.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "dswpd: "+format+"\n", args...)
		}
		store = fs
	}
	eng := engine.New(engine.Options{
		Workers:          *workers,
		QueueDepth:       *queueDepth,
		CacheCap:         *cacheCap,
		PoolSize:         *poolSize,
		QueueCap:         *queueCap,
		Queue:            kind,
		Replicate:        *replicate,
		DefaultDeadline:  *deadline,
		Store:            store,
		CheckpointEvery:  *ckptEvery,
		BreakerThreshold: *breakerK,
		BreakerCooldown:  *breakerCD,
		MaxBodyBytes:     *maxBody,
		MaxInFlightBytes: *maxInflightB,
		MaxRequestBytes:  *maxRequestB,
		ReapAfter:        *reapAfter,
		Telemetry: telemetry.TraceOptions{
			Disable:       *noTelemetry,
			Capacity:      *traceCap,
			SampleRate:    *traceSample,
			SlowThreshold: *traceSlow,
		},
	})

	// Crash recovery runs before the listener opens: any checkpoint
	// entries present were in flight when a previous process died — finish
	// them from their last durable commit, GC what cannot be trusted, and
	// surface the stats in /healthz.
	if rec, err := eng.Recover(context.Background()); err != nil {
		fmt.Fprintf(os.Stderr, "dswpd: recovery: %v\n", err)
		os.Exit(1)
	} else if rec.Scanned > 0 {
		fmt.Printf("dswpd: recovered %d orphaned run(s) (%d scanned, %d gced, %d corrupt)\n",
			rec.Resumed, rec.Scanned, rec.GCed, rec.Corrupt)
	}

	// Server-side timeouts bound client misbehavior: a slow-loris header
	// dribble, a body that never finishes, a reader that never drains the
	// response. Each costs the abuser their connection, not a goroutine.
	srv := &http.Server{Addr: *addr, Handler: engine.NewMux(eng),
		ReadHeaderTimeout: *readHeaderTmo,
		ReadTimeout:       *readTmo,
		WriteTimeout:      *writeTmo,
		MaxHeaderBytes:    1 << 16,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Printf("dswpd: serving on %s (%d workloads)\n", *addr, len(engine.Workloads()))

	// The optional debug listener carries the full engine surface (so the
	// debug endpoints work there too) plus pprof, explicitly registered —
	// importing net/http/pprof's side effects onto the serving mux would
	// expose profiling on the public port.
	var dbg *http.Server
	if *debugAddr != "" {
		dmux := engine.NewMux(eng)
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dbg = &http.Server{Addr: *debugAddr, Handler: dmux}
		go func() {
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "dswpd: debug listener failed: %v\n", err)
			}
		}()
		fmt.Printf("dswpd: debug surface on %s\n", *debugAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("dswpd: %v, draining (grace %s)\n", s, *drain)
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "dswpd: listener failed: %v\n", err)
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop the listener first so no new requests arrive mid-drain, then
	// drain the engine under the same grace period.
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "dswpd: http shutdown: %v\n", err)
	}
	if dbg != nil {
		_ = dbg.Shutdown(ctx)
	}
	if err := eng.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "dswpd: engine drain exceeded grace, in-flight runs canceled: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("dswpd: drained cleanly")
}
