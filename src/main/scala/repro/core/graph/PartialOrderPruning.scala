package repro.core.graph

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}

/** Partial-order based pruning (§IV-D, Algorithm 1).
  *
  * A pair's min_rank₁ counts, within the block of pairs sharing its KB1
  * entity, the vectors *strictly* dominating its similarity vector (and
  * symmetrically min_rank₂). A pair is pruned when max(min_rank₁, min_rank₂)
  * ≥ k — it cannot be in the entity's top-k under any linearisation of the
  * partial order. Pairs dominated by a pruned pair have strictly larger ranks,
  * so the rank filter subsumes Algorithm 1's cascading removal (line 12).
  * Each block emits only its pruned pairs; one anti-join removes them, and a
  * pair pruned in both of its blocks is removed once.
  *
  * One pass is exact: ranking the retained pairs again counts dominating
  * vectors within a subset of each block, so no rank can rise and every
  * retained pair would be kept. The filter is idempotent.
  *
  * Input/output columns: [id1, id2, prior, exact, vec].
  */
object PartialOrderPruning {

  /** s ⪰ s′: componentwise ≥. */
  def dominates(a: Array[Double], b: Array[Double]): Boolean = {
    var i = 0
    while (i < a.length) { if (a(i) < b(i)) return false; i += 1 }
    true
  }

  /** s ≻ s′: componentwise ≥ with at least one strict >. */
  def strictlyDominates(a: Seq[Double], b: Seq[Double]): Boolean = {
    var ge = true
    var gt = false
    var i = 0
    while (i < a.length && ge) {
      if (a(i) < b(i)) ge = false
      else if (a(i) > b(i)) gt = true
      i += 1
    }
    ge && gt
  }

  /** Algorithm 1: drop the pairs with max(min_rank₁, min_rank₂) ≥ k. */
  def prune(spark: SparkSession, candsWithVec: DataFrame, k: Int): DataFrame = {
    import spark.implicits._
    val vecs = candsWithVec.select($"id1", $"id2", $"vec").as[(Long, Long, Seq[Double])]

    // The pairs of each block that k or more pairs of the block strictly dominate.
    def prunedIn(block: ((Long, Long, Seq[Double])) => Long): Dataset[(Long, Long)] =
      vecs.groupByKey(block).flatMapGroups { (_, it) =>
        val pairs = it.toArray
        pairs.iterator.filter(p => pairs.count(o => strictlyDominates(o._3, p._3)) >= k)
          .map(p => (p._1, p._2))
      }

    val pruned = prunedIn(_._1).union(prunedIn(_._2)).toDF("id1", "id2")
    candsWithVec.join(pruned, Seq("id1", "id2"), "left_anti")
  }
}
