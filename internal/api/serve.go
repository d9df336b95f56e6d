package api

import (
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// shutdownGrace bounds how long Serve waits for in-flight requests once it
// is told to stop.
const shutdownGrace = 5 * time.Second

// Serve answers HTTP on ln with h until ctx is cancelled or the process
// receives SIGINT or SIGTERM, then shuts the server down, giving in-flight
// requests up to five seconds to finish. It returns nil after a clean
// shutdown, the shutdown's error when the grace ran out, and the serve error
// when ln fails. Every daemon serves through it, so each one stops the same
// way whichever signal a terminal or a process manager sends.
func Serve(ctx context.Context, ln net.Listener, h http.Handler) error {
	// The signals are watched before the first request is accepted: a
	// SIGTERM that arrives once the listener answers is a shutdown, never
	// the default kill.
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	err := srv.Shutdown(shutdownCtx)
	if serveErr := <-served; !errors.Is(serveErr, http.ErrServerClosed) {
		err = errors.Join(err, serveErr)
	}
	return err
}
