package server

import (
	"net/http"
	"time"

	"repro/internal/api"
)

// Metrics returns a GET handler exposing the server's operational
// counters in the Prometheus text format. It is not mounted on the
// query mux: the daemon mounts it on the observability listener
// (-pprof-addr) so scrapers never compete with query traffic for the
// serving socket.
func (s *Server) Metrics() http.Handler {
	return api.MetricsHandler(func(m *api.Metrics) {
		m.Counter("pathcost_requests_served_total", "Requests answered 2xx.", s.gate.Served.Load())
		m.Counter("pathcost_requests_rejected_total", "Requests answered 4xx/5xx.", s.gate.Rejected.Load())
		m.Counter("pathcost_requests_abandoned_total", "Clients gone before evaluation started.", s.gate.Abandoned.Load())
		m.Counter("pathcost_requests_shed_total", "Requests answered 429 by the MaxQueue load shedder.", s.gate.Shed.Load())
		m.Counter("pathcost_reloads_total", "Model hot reloads (Swap calls).", s.reloads.Load())
		m.Gauge("pathcost_uptime_seconds", "Seconds since the server started.", time.Since(s.start).Seconds())
		m.Gauge("pathcost_max_in_flight", "Concurrent evaluation slot cap.", float64(s.gate.MaxInFlight()))
		m.Gauge("pathcost_queued", "Requests currently waiting for an evaluation slot.", float64(s.gate.Queued.Load()))

		sys := s.System()
		est := sys.EpochStats()
		m.Gauge("pathcost_epoch_seq", "Served model epoch sequence number.", float64(est.Seq))
		m.Counter("pathcost_epoch_publishes_total", "Incremental epoch publishes.", est.Publishes)
		m.Gauge("pathcost_epoch_staged_pending", "Trajectories staged for the next epoch publish.", float64(est.StagedPending))
		if _, werrs, ok := sys.WALStats(); ok {
			m.Counter("pathcost_wal_append_errors_total", "Ingest batches rejected because the WAL could not append them.", werrs.Append)
			m.Counter("pathcost_wal_checkpoint_errors_total", "Epoch publishes whose model checkpoint failed (WAL not truncated).", werrs.Checkpoint)
			m.Counter("pathcost_wal_truncate_errors_total", "Epoch publishes whose WAL truncation failed after a good checkpoint.", werrs.Truncate)
		}
		if cst, ok := sys.QueryCacheStats(); ok {
			m.Counter("pathcost_query_cache_hits_total", "Query cache hits.", cst.Hits)
			m.Counter("pathcost_query_cache_misses_total", "Query cache misses.", cst.Misses)
		}
		if mst, ok := sys.ConvMemoStats(); ok {
			m.Counter("pathcost_conv_memo_hits_total", "Convolution memo hits.", mst.Hits)
			m.Counter("pathcost_conv_memo_misses_total", "Convolution memo misses.", mst.Misses)
		}
	})
}
