// Package sample provides the deterministic sampling machinery behind DCA.
//
// Algorithm 1 of the paper draws "a random sample of sample size from O" at
// every descent step; Algorithm 2 consumes "the next sample in O",
// i.e. walks the dataset in randomized epochs. Both are provided here with
// explicit seeding so every experiment in the repository is reproducible.
//
// Uniform draws keep state sized to the draw, not the population: the
// partial Fisher-Yates shuffle keeps its displaced entries in a small
// generation-stamped hash table, so a 500-of-80,000 draw touches tens of
// kilobytes instead of two population-sized arrays. The epoch iterator
// necessarily holds a permutation of the population; it is allocated once
// and refilled in place. A Sampler is reseedable: Reset(seed) makes it
// replay exactly what New(n, seed) would while reusing all of that.
// core.Trainer owns one and resets it at the start of every run, so
// repeated trains on one trainer (a service's pooled trainers, what-if
// loops) rebuild no sampler state.
package sample
