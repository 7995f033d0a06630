// Package shard implements the sharded serving tier: a deterministic
// region partitioner that splits a trained model by graph partition,
// a model splitter that derives per-region model slices (plus the
// union reference model a single process would serve), and a
// coordinator daemon that decomposes each query path at region
// boundaries, fans per-shard sub-paths out over the ordinary
// /v1/batch machinery, and convolves the returned partial states into
// the final distribution. The coordinator serves on the same api.Gate
// chassis as a single process, with composition as its evaluator; it
// reaches shards over HTTP only and does not import internal/server.
//
// The composition is exact, not approximate: in a region-partitioned
// model no variable spans a region cut, so the Eq. 2 evaluation chain
// folds to an accumulator-only state at precisely each boundary, and
// relaying that state (serialized with the same lossless %g encoding
// the synopsis store uses) reproduces single-process evaluation float
// for float. Sharded answers are therefore byte-identical to a single
// process serving the union model — a property the differential test
// harness in this package checks literally, across partitions,
// methods and cache temperatures.
package shard
