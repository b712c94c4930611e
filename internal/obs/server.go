package obs

import (
	"context"
	"net"
	"net/http"
	"time"
)

// The timeouts every daemon's HTTP server runs with, so a slow or stalled
// client cannot hold a connection, a goroutine and its buffers forever.
const (
	// ReadHeaderTimeout bounds reading a request's headers.
	ReadHeaderTimeout = 10 * time.Second
	// ReadTimeout bounds reading a whole request, body included; the
	// largest bodies are base64 artifacts posted to /swap and /rollout.
	ReadTimeout = time.Minute
	// WriteTimeout bounds a handler plus its reply, from the end of the
	// request headers. It stays above the 30 s default of
	// /debug/pprof/profile; pprof refuses a profile or trace of this
	// length or more, so captures are capped below 2 minutes. A handler
	// that legitimately runs longer moves its own write deadline, as the
	// router's /rollout does.
	WriteTimeout = 2 * time.Minute
	// IdleTimeout bounds how long a keep-alive connection waits for its
	// next request.
	IdleTimeout = 2 * time.Minute
)

// NewServer returns the http.Server a daemon listens with: h on addr,
// the timeouts above, and request contexts that descend from base, so
// cancelling base (the daemon's signal context) cancels in-flight
// requests too.
func NewServer(base context.Context, addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		BaseContext:       func(net.Listener) context.Context { return base },
		ReadHeaderTimeout: ReadHeaderTimeout,
		ReadTimeout:       ReadTimeout,
		WriteTimeout:      WriteTimeout,
		IdleTimeout:       IdleTimeout,
	}
}
