// Package mapmatch aligns raw GPS trajectories with road-network
// paths — the ingestion step the paper assumes before training
// (Section 2.1, "map matching is applied to map match GPS records
// onto the road network", citing Newson and Krumm [16]).
//
// The implementation is the hidden Markov model approach of Newson
// and Krumm (SIGSPATIAL 2009): candidate road edges near each fix are
// HMM states, emission probabilities are Gaussian in the perpendicular
// distance, transition probabilities penalize the difference between
// the on-network route length and the great-circle distance, and
// Viterbi decoding yields the most likely edge sequence. MatchToTimed
// additionally "blasts" the trajectory onto the matched path: fix
// timestamps pin progress positions, and per-edge travel times are
// interpolated between the pins, producing the (path, departure,
// per-edge cost) observations of Section 2.1 that training consumes.
//
// A Matcher is safe for concurrent use after construction: its
// projection, segments and grid index are read-only, and the state a
// match mutates — the bounded Dijkstra's distance table and heap, the
// candidate lookup's "edge already measured" marks — is a search taken
// from the matcher's pool once per trajectory, invalidated between uses
// by a generation stamp instead of being cleared or reallocated. The
// Dijkstra heap is graph.DistHeap, the one ShortestPath runs on. Batch
// ingestion parallelism lives one level up, in one pool: an
// ingest.Pipeline shares one Matcher among its workers, for streaming
// ingestion and for pathcost.MatchTrajectories' bulk loads alike.
package mapmatch
