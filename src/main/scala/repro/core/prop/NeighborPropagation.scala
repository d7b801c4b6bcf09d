package repro.core.prop

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.prop.ConsistencyEstimator.Consistency

/** Match propagation to neighbours (§V-B, Eq. 6–9).
  *
  * Conditioned on a vertex (u1, u2) being a match, the candidate pairs among
  * (N_{u1}^{r1} × N_{u2}^{r2}) ∩ V are resolved *jointly*: every partial
  * matching M of the bipartite candidate set is weighted by
  *   f(M) · g(M|N₁) · g(M|N₂)
  * and the posterior of a pair is its marginal over all matchings (Eq. 9).
  *
  * The constant factors ∏(1-Pr[m_p]) and (1-ε₁)^{n1}(1-ε₂)^{n2} are common to
  * every matching and cancel in the normalisation, so
  *   score(M) = ∏_{p∈M} odds(p) · ζ,  ζ = ε₁ε₂ / ((1-ε₁)(1-ε₂)),
  * which only involves the candidate pairs — the paper's worked example
  * (ε=0.9, priors 0.5 → Pr ≈ 0.99 / 0.01) is reproduced exactly in tests.
  *
  * Value sets are capped at `MaxSide` entities per side (kept by descending
  * prior) to bound the enumeration; a pair the cap cuts gets no posterior
  * from that edge label, and no count records it (ROADMAP direction 5).
  */
object NeighborPropagation {

  /** Most entities per side of one enumerated candidate set; at most 64, as
    * `marginals` marks the used right-hand entities in a 64-bit mask. */
  val MaxSide = 6
  require(MaxSide <= 64, "marginals tracks right-hand entities in a 64-bit mask")

  /** Exact per-pair marginals for one bipartite candidate set.
    * `pairs` are (left, right, prior); returns matching order of posteriors.
    */
  private[prop] def marginals(pairs: Array[(Long, Long, Double)], zeta: Double): Array[Double] = {
    val lefts = pairs.map(_._1).distinct
    val rights = pairs.map(_._2).distinct
    val rIdx = rights.zipWithIndex.toMap
    // adjacency: for each left, the (pairIdx, rightIdx, oddsZeta) options
    val byLeft: Array[Array[(Int, Int, Double)]] = lefts.map { l =>
      pairs.zipWithIndex.collect { case ((`l`, r, prior), i) =>
        val p = math.min(1 - 1e-9, math.max(1e-9, prior))
        (i, rIdx(r), p / (1 - p) * zeta)
      }
    }
    val total = new Array[Double](1)
    val perPair = new Array[Double](pairs.length)
    val chosen = new Array[Int](lefts.length)

    def rec(li: Int, usedMask: Long, weight: Double, nChosen: Int): Unit = {
      if (li == lefts.length) {
        total(0) += weight
        var c = 0
        while (c < nChosen) { perPair(chosen(c)) += weight; c += 1 }
      } else {
        rec(li + 1, usedMask, weight, nChosen) // left entity unmatched
        val opts = byLeft(li)
        var o = 0
        while (o < opts.length) {
          val (pi, ri, w) = opts(o)
          if ((usedMask & (1L << ri)) == 0) {
            chosen(nChosen) = pi
            rec(li + 1, usedMask | (1L << ri), weight * w, nChosen + 1)
          }
          o += 1
        }
      }
    }
    rec(0, 0L, 1.0, 0)
    perPair.map(_ / total(0))
  }

  /** Cap the candidate set to `maxSide` distinct entities per side. */
  private[prop] def capPairs(pairs: Array[(Long, Long, Double)], maxSide: Int): Array[(Long, Long, Double)] = {
    def topEntities(side: ((Long, Long, Double)) => Long): Set[Long] =
      pairs.groupBy(side).view.mapValues(_.map(_._3).max).toSeq
        .sortBy(-_._2).take(maxSide).map(_._1).toSet
    val keepL = topEntities(_._1)
    val keepR = topEntities(_._2)
    pairs.filter(p => keepL(p._1) && keepR(p._2))
  }

  /** Probabilistic ER graph edges: [srcId1, srcId2, dstId1, dstId2, prob]
    * with prob = max over edge labels of the per-label posterior (Eq. 9).
    *
    * `edges` are ER-graph edges; `priors` carry [id1, id2, prior];
    * `consistency` maps (r1, r2) → (ε₁, ε₂).
    */
  def probabilisticEdges(
      spark: SparkSession,
      edges: DataFrame,
      priors: DataFrame,
      consistency: Map[(String, String), Consistency]): DataFrame = {
    import spark.implicits._
    val bc = spark.sparkContext.broadcast(consistency)
    val withPrior = edges.join(
      priors.select(col("id1").as("dstId1"), col("id2").as("dstId2"), col("prior")),
      Seq("dstId1", "dstId2"))
      .select($"srcId1", $"srcId2", $"r1", $"r2", $"dstId1", $"dstId2", $"prior")
      .as[(Long, Long, String, String, Long, Long, Double)]

    withPrior
      .groupByKey(t => (t._1, t._2))
      .flatMapGroups { (src: (Long, Long), it: Iterator[(Long, Long, String, String, Long, Long, Double)]) =>
        val best = collection.mutable.HashMap.empty[(Long, Long), Double]
        for (((r1, r2), rows) <- it.toArray.groupBy(t => (t._3, t._4))) {
          val Consistency(e1, e2) = bc.value.getOrElse((r1, r2), Consistency(0.5, 0.5))
          val zeta = e1 * e2 / ((1 - e1) * (1 - e2))
          // Sorted by destination: rows arrive in shuffle order, and the
          // floating-point sums in `marginals` follow the order of `pairs`.
          val pairs = capPairs(rows.map(t => (t._5, t._6, t._7)).distinct.sortBy(t => (t._1, t._2)), MaxSide)
          pairs.iterator.zip(marginals(pairs, zeta).iterator).foreach { case ((d1, d2, _), pr) =>
            best((d1, d2)) = math.max(pr, best.getOrElse((d1, d2), pr))
          }
        }
        best.iterator.map { case ((d1, d2), pr) => (src._1, src._2, d1, d2, pr) }
      }
      .toDF("srcId1", "srcId2", "dstId1", "dstId2", "prob")
  }
}
