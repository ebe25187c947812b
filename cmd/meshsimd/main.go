// Command meshsimd serves simulation results over HTTP/JSON: scenario
// submissions (single runs and replication sweeps) execute on a bounded
// worker pool behind a content-addressed result cache, so repeated and
// concurrent identical submissions cost one simulation. Served bytes are
// identical to running the same scenario through meshsim -report
// -canonical-report directly.
//
//	meshsimd -addr :8080 -cache-dir /var/cache/meshsimd
//
// SIGTERM/SIGINT begins a graceful drain: new submissions are refused,
// in-flight sweeps checkpoint at the next replication boundary, and the
// process exits 0 once everything has drained (a second signal exits
// immediately with status 130). A restarted daemon resumes interrupted
// sweeps bit-identically from their checkpoints when the same content is
// resubmitted.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"clnlr/internal/buildinfo"
	"clnlr/internal/prof"
	"clnlr/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", "localhost:8080", "HTTP listen address (port 0 picks a free port; the bound address is printed)")
		workers      = flag.Int("workers", 2, "jobs executed concurrently")
		queueDepth   = flag.Int("queue", 16, "queued jobs beyond the running ones before submissions are shed with 429")
		jobWorkers   = flag.Int("job-workers", 0, "engine workers inside one sweep job (0 = GOMAXPROCS)")
		cacheDir     = flag.String("cache-dir", "", "on-disk cache and sweep-checkpoint root (empty = memory-only)")
		cacheBytes   = flag.Int64("cache-bytes", 256<<20, "in-memory cache byte cap")
		cacheEntries = flag.Int("cache-entries", 1024, "cache entry cap (memory and disk tiers)")
		streamIvl    = flag.Duration("stream-interval", 500*time.Millisecond, "progress stream emission period")
		drainWait    = flag.Duration("drain-timeout", 10*time.Minute, "graceful-drain deadline on shutdown")
		version      = flag.Bool("version", false, "print build information and exit")
	)
	profFlags := prof.RegisterFlags(nil)
	flag.Parse()
	if *version {
		buildinfo.Print("meshsimd")
		return
	}

	// Catch the shutdown signals before anything can be observed from
	// outside: a supervisor that sees the listening line or a /healthz
	// answer may signal at once, and a signal that arrived before Notify
	// would kill the process with the default action instead of draining.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)

	stopProf, err := profFlags.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()

	srv, err := serve.New(serve.Config{
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		JobWorkers:      *jobWorkers,
		CacheDir:        *cacheDir,
		CacheMaxBytes:   *cacheBytes,
		CacheMaxEntries: *cacheEntries,
		StreamInterval:  *streamIvl,
	})
	if err != nil {
		log.Fatal(err)
	}
	serve.PublishExpvar(srv)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()
	// The parseable first line CI and scripts wait for; with -addr :0 it
	// carries the actually bound port.
	fmt.Printf("meshsimd listening on http://%s\n", ln.Addr())
	log.Printf("%s", buildinfo.Get())

	sig := <-sigCh
	log.Printf("received %s; draining (in-flight sweeps checkpoint, queue refuses new work)", sig)
	go func() {
		<-sigCh
		log.Printf("second signal; exiting immediately")
		os.Exit(130)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	log.Printf("drained; exiting")
}
