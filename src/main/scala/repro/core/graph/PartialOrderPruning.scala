package repro.core.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Partial-order based pruning (§IV-D, Algorithm 1).
  *
  * Every candidate pair gets a rank per side: min_rank₁ counts, within the
  * block of pairs sharing the same KB1 entity, the vectors *strictly*
  * dominating the pair's similarity vector (and symmetrically min_rank₂).
  * A pair is pruned when max(min_rank₁, min_rank₂) ≥ k — it cannot be in the
  * entity's top-k under any linearisation of the partial order. Pairs
  * dominated by a pruned pair have strictly larger ranks, so the rank filter
  * subsumes Algorithm 1's cascading removal (line 12).
  *
  * One pass is exact: ranking the retained pairs again counts dominating
  * vectors within a subset of each block, so no rank can rise and every
  * retained pair would be kept. The filter is idempotent.
  *
  * Input/output columns: [id1, id2, prior, exact, vec].
  */
object PartialOrderPruning {

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

  /** Algorithm 1: keep the pairs with max(min_rank₁, min_rank₂) < k. */
  def prune(spark: SparkSession, candsWithVec: DataFrame, k: Int): DataFrame = {
    import spark.implicits._
    val vecs = candsWithVec.select($"id1", $"id2", $"vec").as[(Long, Long, Seq[Double])]

    def ranksBy(key: ((Long, Long, Seq[Double])) => Long): DataFrame =
      vecs.groupByKey(key)
        .flatMapGroups { (_, it) =>
          val block = it.toArray
          block.iterator.map { case (id1, id2, v) =>
            var r = 0
            var j = 0
            while (j < block.length) {
              if (strictlyDominates(block(j)._3, v)) r += 1
              j += 1
            }
            (id1, id2, r)
          }
        }
        .toDF("id1", "id2", "rank")

    val r1 = ranksBy(_._1).withColumnRenamed("rank", "rank1")
    val r2 = ranksBy(_._2).withColumnRenamed("rank", "rank2")
    candsWithVec.join(r1, Seq("id1", "id2")).join(r2, Seq("id1", "id2"))
      .filter(greatest($"rank1", $"rank2") < k)
      .drop("rank1", "rank2")
  }
}
