package serve

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

// Ports is the one line the child prints on standard output once every
// listener is up: the base URL of each role it runs. Ports are the kernel's
// choice (127.0.0.1:0), so runs never collide.
type Ports struct {
	PID         int    `json:"pid"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Control     string `json:"control"`
	Coordinator string `json:"coordinator,omitempty"`
	Edge        string `json:"edge"`
	Upstream    string `json:"upstream,omitempty"`
}

// Args renders a Config as the child's command-line arguments.
func (c Config) Args() []string {
	return []string{
		fmt.Sprintf("-coordinator=%t", c.Coordinator),
		"-wal-dir=" + c.WALDir,
		"-forward=" + c.Forward,
	}
}

// listener is one loopback HTTP server of the child.
type listener struct {
	srv *http.Server
	url string
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{
		srv: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url: "http://" + ln.Addr().String(),
	}
	go func() {
		if err := l.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("serve: listener %s: %v", l.url, err)
		}
	}()
	return l, nil
}

// Main is the `encore-bench serve` role: build the topology the flags name,
// listen, report the ports, and serve until SIGTERM or SIGINT, then shut the
// write path down in the collector's own order. It returns the exit code.
func Main(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var cfg Config
	fs.BoolVar(&cfg.Coordinator, "coordinator", false, "run a coordination server beside the edge collector")
	fs.StringVar(&cfg.WALDir, "wal-dir", "", "edge WAL directory (empty: no WAL)")
	fs.StringVar(&cfg.Forward, "forward", ForwardNone, "forward edge commits to an upstream collector: json or binary")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cfg.Forward != ForwardNone && cfg.Forward != ForwardJSON && cfg.Forward != ForwardBinary {
		log.Printf("serve: unknown -forward %q", cfg.Forward)
		return 2
	}

	var listeners []*listener
	open := func(h http.Handler) (string, error) {
		l, err := listen(h)
		if err != nil {
			return "", err
		}
		listeners = append(listeners, l)
		return l.url, nil
	}
	ports := Ports{PID: os.Getpid(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	st, err := Build(cfg, nil, func(up http.Handler) (string, *http.Client, error) {
		url, err := open(up)
		ports.Upstream = url
		return url, nil, err
	})
	if err != nil {
		log.Print(err)
		return 1
	}
	if ports.Edge, err = open(st.Edge); err == nil && st.Coordinator != nil {
		ports.Coordinator, err = open(st.Coordinator)
	}
	if err == nil {
		ports.Control, err = open(st.ControlHandler())
	}
	if err != nil {
		log.Printf("serve: %v", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := json.NewEncoder(stdout).Encode(ports); err != nil {
		log.Printf("serve: reporting ports: %v", err)
		return 1
	}
	<-ctx.Done()

	// Stop taking requests before closing the write path, as the shipped
	// collector does, so nothing is acknowledged after the final WAL sync.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, l := range listeners {
		_ = l.srv.Shutdown(shutdownCtx) // a straggling connection must not block the WAL close
	}
	if err := st.Close(); err != nil {
		log.Printf("serve: shutdown: %v", err)
		return 1
	}
	return 0
}
