package api

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"syscall"
	"testing"
	"time"
)

// serveAsync runs Serve on a fresh loopback listener and reports its result.
func serveAsync(t *testing.T, ctx context.Context, h http.Handler) (url string, done <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan error, 1)
	go func() { ch <- Serve(ctx, ln, h) }()
	return "http://" + ln.Addr().String(), ch
}

func awaitServe(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return")
		return nil
	}
}

func TestServeCancelWaitsForInFlightRequest(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "answered")
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	url, done := serveAsync(t, ctx, h)

	type reply struct {
		body string
		err  error
	}
	replied := make(chan reply, 1)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			replied <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		replied <- reply{string(b), err}
	}()
	<-entered
	cancel()
	select {
	case err := <-done:
		t.Fatalf("Serve returned %v while a request was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if r := <-replied; r.err != nil || r.body != "answered" {
		t.Fatalf("in-flight request got %q, %v; want its answer", r.body, r.err)
	}
	if err := awaitServe(t, done); err != nil {
		t.Fatalf("Serve after a clean shutdown = %v, want nil", err)
	}
}

func TestServeStopsOnSIGTERM(t *testing.T) {
	url, done := serveAsync(t, context.Background(), http.NotFoundHandler())
	// An answered request proves Serve is past its signal registration, so
	// the SIGTERM below cannot reach the default handler and kill the test.
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := awaitServe(t, done); err != nil {
		t.Fatalf("Serve after SIGTERM = %v, want nil", err)
	}
}

// brokenListener fails every Accept.
type brokenListener struct{ net.Listener }

var errBroken = errors.New("listener broke")

func (brokenListener) Accept() (net.Conn, error) { return nil, errBroken }

func TestServeReturnsListenerError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() { done <- Serve(context.Background(), brokenListener{ln}, http.NotFoundHandler()) }()
	if err := awaitServe(t, done); !errors.Is(err, errBroken) {
		t.Fatalf("Serve over a failing listener = %v, want %v", err, errBroken)
	}
}
