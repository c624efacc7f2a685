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

	"xarch"
	"xarch/internal/segstore"
	"xarch/internal/server"
)

// cmdServe runs the long-lived archive service over one external-memory
// store: concurrent reads against pinned view generations, writes
// group-committed by a single committer goroutine (one keydir commit per
// batch), and the replication source endpoints `xarch pull` reads from.
// With -replica it instead serves a bare archive directory as a push
// target — the replication blob API only, no store opened — so a
// standby host needs nothing but a directory. SIGINT/SIGTERM shut
// either mode down gracefully: the HTTP listener stops, every admitted
// add still gets its durable commit and response, and the store is
// closed.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	specPath := fs.String("spec", "", "key specification file")
	archive := fs.String("archive", "", "archive directory (external engine; created if missing)")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	queue := fs.Int("queue", 64, "ingest queue depth; a full queue answers 429")
	batch := fs.Int("batch", 16, "max documents per group commit")
	linger := fs.Duration("linger", 0, "how long a batch waits for more submissions (0: batch only under load)")
	maxBody := fs.Int64("maxbody", 8<<20, "max /v1/add body bytes")
	timeout := fs.Duration("timeout", 60*time.Second, "max wait for a group commit before a request gives up")
	readTimeout := fs.Duration("readtimeout", 10*time.Second, "how long a connection may take to deliver its request headers before it is dropped")
	segTarget := fs.Int("segtarget", 0, "segment payload target size in bytes; 0 uses the default")
	compactBudget := fs.Int("compactbudget", 0, "segment-compaction byte budget after each commit; 0 disables")
	replica := fs.Bool("replica", false, "serve -archive as a replication push target (blob API only; no store is opened, -spec is unused)")
	fs.Parse(args)
	logger := log.New(os.Stderr, "xarch serve: ", log.LstdFlags)

	var handler http.Handler
	var banner string
	shutdown := func(context.Context) error { return nil }
	if *replica {
		if *archive == "" {
			return fmt.Errorf("serve -replica needs -archive")
		}
		st, err := segstore.NewLocal(nil, *archive)
		if err != nil {
			return err
		}
		handler = server.NewReplicaHandler(st, logger)
		banner = fmt.Sprintf("serving replica target %s", *archive)
	} else {
		if *specPath == "" || *archive == "" {
			return fmt.Errorf("serve needs -spec and -archive")
		}
		spec, err := loadSpec(*specPath)
		if err != nil {
			return err
		}
		store, err := xarch.OpenStore(*archive, spec,
			xarch.WithSegmentTargetSize(*segTarget),
			xarch.WithCompactionBudget(*compactBudget))
		if err != nil {
			return err
		}
		srv := server.New(store, server.Options{
			QueueDepth:   *queue,
			MaxBatch:     *batch,
			Linger:       *linger,
			MaxBodyBytes: *maxBody,
			AddTimeout:   *timeout,
			Logger:       logger,
		})
		// From here on srv owns the store: srv.Shutdown closes it.
		handler = srv.Handler()
		shutdown = srv.Shutdown
		banner = fmt.Sprintf("serving archive %s (%d versions)", *archive, store.Versions())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		shutdown(context.Background())
		return err
	}
	hs := &http.Server{
		Handler: handler,
		// Slow or stalled clients must not pin connections forever: a
		// socket that dawdles over its headers is dropped after
		// -readtimeout, and keep-alive connections idle for over two
		// minutes are reclaimed.
		ReadHeaderTimeout: *readTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	logger.Printf("%s on http://%s", banner, ln.Addr())
	return serveLoop(hs, ln, logger, shutdown)
}

// serveLoop runs hs on ln until it fails or a SIGINT/SIGTERM arrives,
// then drains: HTTP connections first, then the store's own shutdown.
func serveLoop(hs *http.Server, ln net.Listener, logger *log.Logger, shutdown func(context.Context) error) error {
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	select {
	case err := <-serveErr:
		shutdown(context.Background())
		return err
	case s := <-sig:
		logger.Printf("received %v; draining", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	if err := shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	logger.Printf("shutdown complete")
	return nil
}
