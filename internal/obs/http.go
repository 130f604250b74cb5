package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// ValidateAddr checks a -listen flag value: a host:port (host may be
// empty, meaning all interfaces) with a numeric port in range, or a bare
// ":port". It never panics on malformed input — the CLI fuzz seed corpus
// feeds it garbage — and returns usage-quality errors.
func ValidateAddr(addr string) error {
	if addr == "" {
		return fmt.Errorf("obs: empty listen address")
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("obs: listen address %q: %v (want host:port, e.g. :8080)", addr, err)
	}
	n, err := strconv.Atoi(port)
	if err != nil {
		return fmt.Errorf("obs: listen address %q: port %q is not a number", addr, port)
	}
	if n < 0 || n > 65535 {
		return fmt.Errorf("obs: listen address %q: port %d out of range", addr, n)
	}
	if host != "" {
		if ip := net.ParseIP(host); ip == nil {
			// Hostnames are allowed (resolved at listen time); reject
			// obvious junk that SplitHostPort lets through.
			for _, r := range host {
				if r == ' ' || r == '/' {
					return fmt.Errorf("obs: listen address %q: bad host %q", addr, host)
				}
			}
		}
	}
	return nil
}

// NewDebugMux builds the live debug surface a long-running process mounts:
//
//	/debug/vars     registry snapshot (expvar-style JSON)
//	/debug/pprof/*  standard pprof handlers (profile, heap, trace, ...)
//
// reg may be nil; /debug/vars then serves an empty snapshot.
func NewDebugMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, reg.Snapshot())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Listen validates and binds the debug address, returning the listener so
// the caller can report the bound address (":0" picks a free port) and
// serve the mux on it.
func Listen(addr string) (net.Listener, error) {
	if err := ValidateAddr(addr); err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	return l, nil
}
