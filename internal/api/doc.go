// Package api is the JSON wire format of the pathcost HTTP API, once,
// for the single-process server (internal/server) and the
// sharded-serving coordinator (internal/shard): the request and
// response types, the request-validation helpers, and Wire — the codec
// that reads request bodies, derives request contexts and writes
// answers and error envelopes on both tiers. One set of shapes
// assembled and encoded by one set of functions is what lets the
// coordinator emit responses byte-identical to a single process.
//
// Wire's contract is encoding/json's behaviour, byte for byte. The
// hot shapes (DistributionRequest and plain BatchRequest in,
// DistributionResponse and BatchResponse out) have reflection-free
// fast paths held to that contract by FuzzWireCodec; everything else,
// including every malformed body and so every error message, goes
// through encoding/json itself.
package api
