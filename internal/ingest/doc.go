// Package ingest is the streaming front half of the paper's ingestion
// pipeline (Section 2.1): raw GPS traces arrive in batches, an HMM
// map-matching worker pool aligns each with a road-network path, and
// the resulting (path, departure, per-edge cost) observations are
// staged into a Sink — in the serving system, the epoch-versioned
// model's delta buffer, from which the next PublishEpoch folds them
// into the model incrementally.
//
// The package is deliberately decoupled from the model: it knows how
// to turn raw fixes into validated Matched observations and hand them
// off, nothing more. That keeps the matcher pool reusable — it is the
// only one: the /v1/ingest endpoint stages into the model, and the
// offline bulk loader, pathcost.MatchTrajectories, runs one batch into a
// collecting Sink — and keeps the model's epoch lifecycle the single
// owner of delta staging.
//
// A Pipeline builds its mapmatch.Matcher once, in New: the projection,
// per-edge segments and grid index cover the whole network, so building
// them per request — or per worker — is a model-sized cost on a
// batch-sized operation. Every IngestRaw call and every worker of its
// pool share that Matcher, which is safe for concurrent use.
package ingest
