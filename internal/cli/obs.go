package cli

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"streamcover/internal/obs"
)

// ObsOptions configures the shared observability opt-in of the CLI tools:
// an HTTP endpoint serving /metrics (Prometheus), /debug/vars (expvar) and
// /debug/pprof (live profiling), and a decision-trace dump written at exit.
type ObsOptions struct {
	// Listen is the address for the observability server (e.g. ":6060" or
	// "127.0.0.1:0" for an ephemeral port). Empty disables the server.
	Listen string
	// TraceOut is a path to write the decision ring to, in the SCTRACE1
	// format cmd/sctrace reads back. Empty disables the dump.
	TraceOut string
	// RingCap overrides the decision-ring capacity (0 = obs.DefaultRingCap).
	RingCap int
	// Hold keeps the server alive this long after Close is called, so an
	// external scraper can observe a run that finishes quickly. Zero closes
	// immediately.
	Hold time.Duration
}

// enabled reports whether any observability surface was requested.
func (o ObsOptions) enabled() bool { return o.Listen != "" || o.TraceOut != "" }

// RegisterObsFlags wires the standard observability flags (-obs-listen,
// -trace-out, -obs-ring) into fs and returns the options they fill.
func RegisterObsFlags(fs *flag.FlagSet) *ObsOptions {
	o := &ObsOptions{}
	fs.StringVar(&o.Listen, "obs-listen", "",
		"serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :6060); empty disables")
	fs.StringVar(&o.TraceOut, "trace-out", "",
		"write the decision trace (SCTRACE1, readable by sctrace -decisions) to this file on exit")
	fs.IntVar(&o.RingCap, "obs-ring", 0,
		fmt.Sprintf("decision-ring capacity (0 = %d)", obs.DefaultRingCap))
	return o
}

// ObsSession is a started observability surface. The zero of *ObsSession
// (nil) is inert: Close is a no-op, so callers can unconditionally
// defer/invoke it.
type ObsSession struct {
	hub      *obs.Hub
	srv      *http.Server
	ln       net.Listener
	traceOut string
	hold     time.Duration
}

// StartObs installs a process-global obs.Hub according to o and, when
// requested, starts the HTTP server. It returns nil (inert) when o requests
// nothing, so callers need no conditional.
func StartObs(o ObsOptions) (*ObsSession, error) {
	if !o.enabled() {
		return nil, nil
	}
	hub := obs.NewHub(o.RingCap)
	obs.SetGlobal(hub)
	s := &ObsSession{hub: hub, traceOut: o.TraceOut, hold: o.Hold}
	if o.Listen != "" {
		ln, err := net.Listen("tcp", o.Listen)
		if err != nil {
			return nil, fmt.Errorf("obs: listen %s: %w", o.Listen, err)
		}
		s.ln = ln
		s.srv = &http.Server{Handler: hub.Handler()}
		go func() { _ = s.srv.Serve(ln) }()
		// The resolved address goes to stderr so scripts (cluster-smoke
		// among them) can find an ephemeral port without parsing flags.
		fmt.Fprintf(os.Stderr, "obs: serving metrics on http://%s/metrics\n", ln.Addr())
	}
	return s, nil
}

// Addr returns the bound address of the HTTP server ("" when not serving).
func (s *ObsSession) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Hub returns the session's hub (nil for an inert session).
func (s *ObsSession) Hub() *obs.Hub {
	if s == nil {
		return nil
	}
	return s.hub
}

// Close writes the trace dump (if configured), honors the hold window, and
// shuts the HTTP server down. Safe on nil and safe to call once after any
// partial start.
func (s *ObsSession) Close() error {
	if s == nil {
		return nil
	}
	var firstErr error
	if s.traceOut != "" {
		if err := obs.WriteTraceFile(s.traceOut, s.hub.Ring()); err != nil {
			firstErr = fmt.Errorf("obs: trace dump: %w", err)
		} else {
			fmt.Fprintf(os.Stderr, "obs: wrote decision trace to %s (%d events, %d dropped)\n",
				s.traceOut, len(s.hub.Ring().Events()), s.hub.Ring().Dropped())
		}
	}
	if s.srv != nil {
		if s.hold > 0 {
			fmt.Fprintf(os.Stderr, "obs: holding server on %s for %s\n", s.Addr(), s.hold)
			time.Sleep(s.hold)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := s.srv.Shutdown(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	obs.SetGlobal(nil)
	return firstErr
}
