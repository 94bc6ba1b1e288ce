// Package rank implements the score-based ranking machinery of the paper:
// ranking functions over score attributes (Definition 1), bonus-point
// application (Definition 2) with support for adverse selections where a
// lower score is desirable (the COMPAS scenario), and top-k% selection with
// two interchangeable algorithms (full sort, bounded heap) for the
// selection-strategy ablation.
//
// On top of the per-request selectors sits ComboRuns, the combo-run merge
// structure: the population is partitioned once by distinct fairness-
// attribute combination into g runs, each pre-sorted by (base score desc,
// id asc). Because a bonus vector shifts every member of a run by the same
// constant, any top-k prefix under any bonus is an exact g-way bounded-heap
// merge of the pre-sorted runs — O(k log g) per request instead of a
// population-wide O(n log n) sort, bit-identical to the full sort including
// tie-breaking (equal-effective-score head groups are re-emitted in
// ascending id order, covering the rounding-collapse case where adding the
// run offset makes distinct bases equal). RankOf answers one object's exact
// rank by binary search per run.
package rank
