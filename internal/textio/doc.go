// Package textio holds what the line-oriented file formats (network,
// trajectories, model, partition) share: one scanner configuration,
// so they agree on the longest line they accept and none of them pays
// for that cap up front.
package textio
