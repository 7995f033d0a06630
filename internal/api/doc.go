// Package api is the pathcost HTTP API, once, for the single-process
// server (internal/server) and the sharded-serving coordinator
// (internal/shard): the request and response types, the request
// limits and validation helpers, Wire — the codec that reads request
// bodies, derives request contexts and writes answers and error
// envelopes — and Gate, the serving chassis around it: evaluation
// slots, MaxQueue shedding, the deadline-to-504 mapping, the endpoint
// sequences, /healthz, the listener loop and the Prometheus writer.
// Each tier supplies only its evaluators. One set of shapes assembled
// and encoded by one set of functions is what lets the coordinator
// emit responses byte-identical to a single process.
//
// The codec's contract is encoding/json's behaviour, byte for byte.
// The hot shapes have reflection-free fast paths held to that contract
// by FuzzWireCodec: on a served request, DistributionRequest and plain
// BatchRequest in (relay legs' state entries among them),
// DistributionResponse and BatchResponse out (distribution and state
// entries inline); on the coordinator's side of a relay leg, the
// BatchRequest it sends (MarshalBatchRequest) and the plain
// BatchResponse it reads back (UnmarshalBatchResponse). Everything
// else, including every malformed body and so every error message,
// goes through encoding/json itself.
package api
