// Command soifftd serves batched FFTs over TCP.
//
// It fronts the soifft library with internal/serve: concurrent requests for
// the same transform length are coalesced into one worker pass over the
// cached plan for that length, SOI plans are cached across requests, and admission control sheds load beyond -max-inflight with a typed
// overload error instead of queueing without bound.
//
// Usage:
//
//	soifftd -listen :7311 -metrics 127.0.0.1:7312 &
//	curl http://127.0.0.1:7312/metrics
//
// bench/soiperf's serve_* workloads are its load generator.
//
// SIGTERM or SIGINT starts a graceful drain: the listener closes, new
// requests are refused with a shutting-down error frame, and in-flight
// requests complete and flush before the process exits (bounded by
// -drain-timeout).
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
	"runtime"
	"syscall"
	"time"

	"soifft/internal/serve"
)

func main() {
	var (
		listen       = flag.String("listen", "127.0.0.1:7311", "TCP listen address (host:port; port 0 picks a free port)")
		metricsAddr  = flag.String("metrics", "", "optional HTTP address serving the plain-text metrics (e.g. 127.0.0.1:7312)")
		workers      = flag.Int("workers", runtime.GOMAXPROCS(0), "executor pool size")
		maxBatch     = flag.Int("max-batch", 32, "max transforms one worker takes from a queue per pass (1 disables batching)")
		maxInflight  = flag.Int("max-inflight", 256, "admitted-transform bound; beyond it requests are shed")
		planCache    = flag.Int("plan-cache", 32, "SOI plan LRU capacity")
		maxN         = flag.Int("max-n", 1<<24, "largest accepted transform length")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain bound after SIGTERM/SIGINT")
	)
	flag.Parse()

	srv := serve.New(serve.Config{
		MaxInFlight:   *maxInflight,
		MaxBatch:      *maxBatch,
		Workers:       *workers,
		PlanCacheSize: *planCache,
		MaxN:          *maxN,
	})

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("soifftd: %v", err)
	}
	// The resolved address line is machine-readable on purpose: with port 0,
	// a launcher parses the actual port from it.
	log.Printf("soifftd: listening on %s (workers=%d max-batch=%d max-inflight=%d)",
		ln.Addr(), *workers, *maxBatch, *maxInflight)

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, srv.MetricsText())
		})
		msrv := &http.Server{Addr: *metricsAddr, Handler: mux}
		go func() {
			if err := msrv.ListenAndServe(); err != http.ErrServerClosed {
				log.Printf("soifftd: metrics server: %v", err)
			}
		}()
		defer msrv.Close()
		log.Printf("soifftd: metrics on http://%s/metrics", *metricsAddr)
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		log.Printf("soifftd: %v — draining (timeout %v)", s, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("soifftd: drain incomplete: %v", err)
			os.Exit(1)
		}
		log.Printf("soifftd: drained cleanly")
	case err := <-serveErr:
		log.Fatalf("soifftd: serve: %v", err)
	}
}
