package obs

import (
	"context"
	"net/http"
	"testing"
	"time"
)

// TestNewServerSetsTimeouts: the shared daemon constructor sets all four
// server timeouts, and WriteTimeout leaves room for a default-length
// /debug/pprof/profile capture.
func TestNewServerSetsTimeouts(t *testing.T) {
	type key struct{}
	base := context.WithValue(context.Background(), key{}, "base")
	s := NewServer(base, "127.0.0.1:0", http.NotFoundHandler())
	for name, d := range map[string]time.Duration{
		"ReadHeaderTimeout": s.ReadHeaderTimeout,
		"ReadTimeout":       s.ReadTimeout,
		"WriteTimeout":      s.WriteTimeout,
		"IdleTimeout":       s.IdleTimeout,
	} {
		if d <= 0 {
			t.Errorf("%s = %v, want a positive timeout", name, d)
		}
	}
	if s.WriteTimeout <= 30*time.Second {
		t.Errorf("WriteTimeout = %v, want above the 30s default pprof profile", s.WriteTimeout)
	}
	if s.Addr != "127.0.0.1:0" || s.Handler == nil {
		t.Errorf("addr %q handler %v not carried through", s.Addr, s.Handler)
	}
	if s.BaseContext == nil || s.BaseContext(nil).Value(key{}) != "base" {
		t.Error("request contexts do not descend from the base context")
	}
}
