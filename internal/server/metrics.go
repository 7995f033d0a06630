package server

import (
	"fmt"
	"net/http"
	"strings"
	"time"
)

// metricsContentType is the Prometheus text exposition format version
// every mainstream scraper accepts.
const metricsContentType = "text/plain; version=0.0.4; charset=utf-8"

// metricsWriter accumulates one exposition; methods keep the HELP/TYPE
// preamble next to each sample so the output stays well-formed as
// metrics are added.
type metricsWriter struct {
	b strings.Builder
}

func (m *metricsWriter) counter(name, help string, v uint64) {
	fmt.Fprintf(&m.b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func (m *metricsWriter) gauge(name, help string, v float64) {
	fmt.Fprintf(&m.b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
}

// Metrics returns a GET handler exposing the server's operational
// counters in the Prometheus text format. It is not mounted on the
// query mux: the daemon mounts it on the observability listener
// (-pprof-addr) so scrapers never compete with query traffic for the
// serving socket.
func (s *Server) Metrics() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "use GET", http.StatusMethodNotAllowed)
			return
		}
		var m metricsWriter
		m.counter("pathcost_requests_served_total", "Requests answered 2xx.", s.served.Load())
		m.counter("pathcost_requests_rejected_total", "Requests answered 4xx/5xx.", s.rejected.Load())
		m.counter("pathcost_requests_abandoned_total", "Clients gone before evaluation started.", s.abandoned.Load())
		m.counter("pathcost_requests_shed_total", "Requests answered 429 by the MaxQueue load shedder.", s.shed.Load())
		m.counter("pathcost_reloads_total", "Model hot reloads (Swap calls).", s.reloads.Load())
		m.gauge("pathcost_uptime_seconds", "Seconds since the server started.", time.Since(s.start).Seconds())
		m.gauge("pathcost_max_in_flight", "Concurrent evaluation slot cap.", float64(s.cfg.MaxInFlight))
		m.gauge("pathcost_queued", "Requests currently waiting for an evaluation slot.", float64(s.queued.Load()))

		sys := s.System()
		est := sys.EpochStats()
		m.gauge("pathcost_epoch_seq", "Served model epoch sequence number.", float64(est.Seq))
		m.counter("pathcost_epoch_publishes_total", "Incremental epoch publishes.", est.Publishes)
		m.gauge("pathcost_epoch_staged_pending", "Trajectories staged for the next epoch publish.", float64(est.StagedPending))
		if _, werrs, ok := sys.WALStats(); ok {
			m.counter("pathcost_wal_append_errors_total", "Ingest batches rejected because the WAL could not append them.", werrs.Append)
			m.counter("pathcost_wal_checkpoint_errors_total", "Epoch publishes whose model checkpoint failed (WAL not truncated).", werrs.Checkpoint)
			m.counter("pathcost_wal_truncate_errors_total", "Epoch publishes whose WAL truncation failed after a good checkpoint.", werrs.Truncate)
		}
		if cst, ok := sys.QueryCacheStats(); ok {
			m.counter("pathcost_query_cache_hits_total", "Query cache hits.", cst.Hits)
			m.counter("pathcost_query_cache_misses_total", "Query cache misses.", cst.Misses)
		}
		if mst, ok := sys.ConvMemoStats(); ok {
			m.counter("pathcost_conv_memo_hits_total", "Convolution memo hits.", mst.Hits)
			m.counter("pathcost_conv_memo_misses_total", "Convolution memo misses.", mst.Misses)
		}
		if sst, ok := sys.SynopsisStats(); ok {
			m.counter("pathcost_synopsis_hits_total", "Synopsis store hits.", sst.Hits)
			m.counter("pathcost_synopsis_misses_total", "Synopsis store misses.", sst.Misses)
		}

		w.Header().Set("Content-Type", metricsContentType)
		_, _ = w.Write([]byte(m.b.String()))
	})
}
