// Package cache provides the caching primitive of the serving path: a
// sharded, size-bounded LRU map.
//
// Training a hybrid graph is the expensive offline step, but at
// serving scale the per-query cost — decomposition search plus
// joint-distribution chain evaluation — still dominates, and real
// query workloads are heavily skewed toward a small set of popular
// (path, departure-interval) pairs with long shared prefixes. The LRU
// turns that skew into throughput while keeping memory use fixed; it
// backs both levels of the query cache (pathcost.EnableQueryCache)
// and the prefix-keyed convolution memo (core.ConvMemo,
// pathcost.EnableConvMemo).
//
// The cache is sharded by key hash: each shard has its own lock and
// its own LRU list, so concurrent readers on different shards never
// contend. Hit/miss/eviction counters are kept with atomics and
// exposed via Stats.
package cache
