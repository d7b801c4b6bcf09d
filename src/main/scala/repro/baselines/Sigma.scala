package repro.baselines

import org.apache.spark.sql.DataFrame

/** SiGMa baseline [Lacoste-Julien et al., KDD'13] — simple greedy matching
  * without crowdsourcing (used in Table VI).
  *
  * A priority queue is seeded with the given matches; popping the best-scored
  * pair commits it (hard 1:1), then its ER-graph neighbours are (re)scored as
  * score = α·stringSim + (1−α)·graphSim, where graphSim is the fraction of
  * the pair's neighbours already committed as matches. Greedy hard decisions
  * over noisy string similarity are exactly the error-accumulation mode the
  * paper contrasts Remp against.
  */
object Sigma {

  type Pair = (Long, Long)

  /** @param edges  ER graph edges [srcId1, srcId2, dstId1, dstId2, r1, r2]
    * @param prior  label-similarity prior of every retained pair
    */
  def run(edges: DataFrame, prior: Map[Pair, Double], seeds: Set[Pair],
          alpha: Double = 0.4, threshold: Double = 0.35): Set[Pair] = {
    // Undirected neighbour lists over the ER graph, built in edge order so
    // that the queue's tie order does not follow Spark's partitioning.
    val nbrs = collection.mutable.Map.empty[Pair, List[Pair]]
    edges.select("srcId1", "srcId2", "dstId1", "dstId2").distinct().collect()
      .map(r => ((r.getLong(0), r.getLong(1)), (r.getLong(2), r.getLong(3))))
      .sorted
      .foreach { case (s, d) =>
        nbrs(s) = d :: nbrs.getOrElse(s, Nil)
        nbrs(d) = s :: nbrs.getOrElse(d, Nil)
      }
    val matched = collection.mutable.Set.empty[Pair]
    val used1 = collection.mutable.Set.empty[Long]
    val used2 = collection.mutable.Set.empty[Long]

    def score(p: Pair): Double = {
      val ns = nbrs.getOrElse(p, Nil)
      val g = if (ns.isEmpty) 0.0 else ns.count(matched.contains).toDouble / ns.size
      alpha * prior.getOrElse(p, 0.0) + (1 - alpha) * g
    }

    def commit(p: Pair): Unit = { matched += p; used1 += p._1; used2 += p._2 }

    val pq = collection.mutable.PriorityQueue.empty[(Double, Pair)](Ordering.by(_._1))
    for (s <- seeds) {
      if (!used1(s._1) && !used2(s._2)) {
        commit(s)
        for (n <- nbrs.getOrElse(s, Nil)) pq.enqueue((score(n), n))
      }
    }
    while (pq.nonEmpty) {
      val (st, p) = pq.dequeue()
      if (!used1(p._1) && !used2(p._2)) {
        val fresh = score(p)
        if (fresh >= st - 1e-12) { // stale scores only ever increase
          if (fresh >= threshold) {
            commit(p)
            for (n <- nbrs.getOrElse(p, Nil) if !used1(n._1) && !used2(n._2))
              pq.enqueue((score(n), n))
          }
        } else pq.enqueue((fresh, p))
      }
    }
    matched.toSet
  }
}
