package obs

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format (version 0.0.4): counters as `# TYPE name counter`,
// gauges as gauges, histograms as cumulative `_bucket{le="..."}` series
// plus `_sum`/`_count`, durations in seconds.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	for _, name := range s.names {
		switch s.kinds[name] {
		case kindCounter:
			if err := promHeader(w, name, s.help[name], "counter"); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", name, s.Counters[name]); err != nil {
				return err
			}
		case kindGauge:
			if err := promHeader(w, name, s.help[name], "gauge"); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", name, s.Gauges[name]); err != nil {
				return err
			}
		case kindHistogram:
			if err := promHeader(w, name, s.help[name], "histogram"); err != nil {
				return err
			}
			h := s.Histograms[name]
			cum := uint64(0)
			for i, b := range h.Bounds {
				cum += h.Counts[i]
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n",
					name, formatSeconds(b.Seconds()), cum); err != nil {
					return err
				}
			}
			cum += h.Counts[len(h.Counts)-1]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n",
				name, formatSeconds(h.Sum.Seconds()), name, h.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

// promHeader writes the # HELP / # TYPE preamble.
func promHeader(w io.Writer, name, help, typ string) error {
	if help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	return err
}

// formatSeconds renders a float without exponent noise for round values.
func formatSeconds(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Vars returns the snapshot as a plain name→value map suitable for
// expvar/JSON export: counters and gauges as numbers, histograms as
// {"count", "sum_ns", "buckets": {le_ns: n}} maps.
func (s *Snapshot) Vars() map[string]any {
	out := make(map[string]any, len(s.names))
	for _, name := range s.names {
		switch s.kinds[name] {
		case kindCounter:
			out[name] = s.Counters[name]
		case kindGauge:
			out[name] = s.Gauges[name]
		case kindHistogram:
			h := s.Histograms[name]
			buckets := make(map[string]uint64, len(h.Counts))
			for i, b := range h.Bounds {
				buckets[strconv.FormatInt(int64(b), 10)] = h.Counts[i]
			}
			buckets["inf"] = h.Counts[len(h.Counts)-1]
			out[name] = map[string]any{
				"count":   h.Count,
				"sum_ns":  int64(h.Sum),
				"buckets": buckets,
			}
		}
	}
	return out
}

// PublishExpvar publishes the registry under the given expvar name as a
// Func that snapshots on demand (so /debug/vars always serves coherent,
// clamped values). Re-publishing an existing name is a no-op: expvar
// forbids duplicates and observability setup must be idempotent.
func (r *Registry) PublishExpvar(name string) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot().Vars() }))
}

// Handler returns an http.Handler serving the registry in Prometheus
// text format — mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.Snapshot().WritePrometheus(w)
	})
}

// ServeMetrics serves the registry on an owned HTTP server at addr:
// Prometheus text at /metrics and, published as "twodcache", expvar at
// /debug/vars, on a private mux. It listens before it returns, so a bad
// address fails the caller at startup instead of leaving a run without
// metrics. It returns the bound address and a stop function for the
// caller's drain: stop shuts the server down within a second and
// reports why it could not, or why serving failed.
func (r *Registry) ServeMetrics(addr string) (net.Addr, func() error, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	r.PublishExpvar("twodcache")
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	srv := &http.Server{Handler: mux}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if serr := <-served; serr != http.ErrServerClosed {
			err = errors.Join(err, serr)
		}
		return err
	}
	return l.Addr(), stop, nil
}
