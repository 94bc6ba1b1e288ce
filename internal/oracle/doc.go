// Package oracle is a deliberately independent reference for the
// selection side of the transparency report (Section III-C): the
// published cutoff, the per-group selection counts, and the objects a
// bonus vector admits or displaces. It shares no code with the ranking
// engine — it imports only internal/dataset and the standard library —
// and takes the most direct route to every answer: Definition 2 scores
// for the whole population, one stable sort, and plain scans. It is slow
// on purpose; the engine's tests compare their ranked passes against it.
package oracle
