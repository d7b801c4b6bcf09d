package repro.baselines

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

  // α weighs the label-similarity prior, 1 − α the graph term; a pair is
  // committed at a score of at least Threshold.
  val Alpha = 0.4
  val Threshold = 0.35

  /** Undirected neighbour lists over the ER graph edges (source,
    * destination), built from the distinct edges in sorted order, so that the
    * queue's tie order does not follow the order of `edges`.
    */
  def neighbours(edges: Seq[(Pair, Pair)]): Map[Pair, List[Pair]] = {
    val nbrs = collection.mutable.Map.empty[Pair, List[Pair]]
    edges.distinct.sorted.foreach { case (s, d) =>
      nbrs(s) = d :: nbrs.getOrElse(s, Nil)
      nbrs(d) = s :: nbrs.getOrElse(d, Nil)
    }
    nbrs.toMap
  }

  /** @param nbrs   the ER graph's neighbour lists, from `neighbours`
    * @param prior  label-similarity prior of every retained pair
    */
  def run(nbrs: Map[Pair, List[Pair]], prior: Map[Pair, Double], seeds: Set[Pair]): Set[Pair] = {
    val matched = collection.mutable.Set.empty[Pair]
    val used1 = collection.mutable.Set.empty[Long]
    val used2 = collection.mutable.Set.empty[Long]

    def score(p: Pair): Double = {
      val ns = nbrs.getOrElse(p, Nil)
      val g = if (ns.isEmpty) 0.0 else ns.count(matched.contains).toDouble / ns.size
      Alpha * prior(p) + (1 - Alpha) * g
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
          if (fresh >= Threshold) {
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
