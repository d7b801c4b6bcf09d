package repro.core

import repro.core.graph.PartialOrderPruning.dominates
import repro.util.BipartiteMatching

/** Evaluation metrics used across the paper's tables. */
object Metrics {

  final case class PRF(precision: Double, recall: Double, f1: Double) {
    override def toString: String =
      f"P=${precision * 100}%.1f%% R=${recall * 100}%.1f%% F1=${f1 * 100}%.1f%%"
  }

  /** Precision/recall/F1 of `found` against `gold`. */
  def prfSets[A](found: Set[A], gold: Set[A]): PRF = {
    if (found.isEmpty) return PRF(0.0, 0.0, 0.0)
    val tp = found.intersect(gold).size.toDouble
    val p = tp / found.size
    val r = if (gold.nonEmpty) tp / gold.size else 0.0
    val f1 = if (p + r == 0) 0.0 else 2 * p * r / (p + r)
    PRF(p, r, f1)
  }

  /** Pair completeness: fraction of gold matches preserved in `pairs` (Table V). */
  def pairCompleteness[A](pairs: Set[A], gold: Set[A]): Double =
    if (gold.isEmpty) 0.0 else gold.count(pairs).toDouble / gold.size

  /** Reduction ratio: fraction of candidates pruned (Table V). */
  def reductionRatio(before: Long, after: Long): Double =
    if (before == 0) 0.0 else 1.0 - after.toDouble / before

  /** Error rate of the optimal monotone classifier (Table V; [Tao, PODS'18]).
    *
    * A monotone classifier must misclassify one endpoint of every pair
    * (match m, non-match n) with s(n) ⪰ s(m); the minimum number of errors is
    * the min vertex cover of that bipartite violation graph = max matching.
    */
  def optimalMonotoneErrorRate(
      vectors: Seq[(Array[Double], Boolean)]): Double = {
    if (vectors.isEmpty) return 0.0
    val matches = vectors.filter(_._2).map(_._1).toArray
    val nonMatches = vectors.filterNot(_._2).map(_._1).toArray
    if (matches.isEmpty || nonMatches.isEmpty) return 0.0
    val adj = matches.map { m =>
      nonMatches.indices.filter(j => dominates(nonMatches(j), m)).toArray
    }
    val errors = BipartiteMatching.maxMatching(matches.length, nonMatches.length, adj)
    errors.toDouble / vectors.size
  }
}
