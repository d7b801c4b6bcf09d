package repro.baselines

import repro.kb.KB

/** PARIS baseline [Suchanek et al., VLDB'11] — probabilistic, functionality-
  * weighted match propagation without crowdsourcing (used in Table VI).
  *
  * Match probabilities start at 1 for the seed matches and are iteratively
  * re-estimated: an edge labelled (r1, r2) transfers evidence proportional to
  * the *functionality* of both relationships (≈ 1/avg fan-out), the noisy-or
  * of all incoming evidence giving the new probability. This mirrors PARIS's
  * fixed-point over alignment probabilities; like PARIS, it has no crowd and
  * accumulates errors through multi-valued relationships — the behaviour
  * Table VI probes. The final alignment keeps, per entity, its best-scoring
  * counterpart with probability ≥ 0.5 (greedy 1:1).
  */
object Paris {

  type Pair = (Long, Long)

  /** An ER graph edge: source, destination and its label (r1, r2). */
  type Edge = (Pair, Pair, String, String)

  // Fixed-point rounds: evidence moves one hop per round, so seeds reach
  // pairs up to 8 hops away. The alignment keeps probabilities ≥ 0.5.
  val Iterations = 8
  val Threshold = 0.5

  /** fanout-based functionality: #distinct subjects / #triples (and the
    * inverse for reverse traversal).
    */
  private def functionalities(kb: KB): (Map[String, Double], Map[String, Double]) = {
    val rows = kb.rels.groupBy("rel")
      .agg(org.apache.spark.sql.functions.countDistinct("subj").as("ns"),
        org.apache.spark.sql.functions.countDistinct("obj").as("no"),
        org.apache.spark.sql.functions.count(org.apache.spark.sql.functions.lit(1)).as("nt"))
      .collect()
    val fwd = rows.map(r => r.getString(0) -> r.getLong(1).toDouble / r.getLong(3)).toMap
    val rev = rows.map(r => r.getString(0) -> r.getLong(2).toDouble / r.getLong(3)).toMap
    (fwd, rev)
  }

  /** Each source's (destination, functionality weight) list, undirected, in
    * the pairs' hash order; `kb1` and `kb2` hold the labels of `edges`. */
  def neighbours(edges: Seq[Edge], kb1: KB, kb2: KB): Map[Pair, Seq[(Pair, Double)]] = {
    val (f1, r1f) = functionalities(kb1)
    val (f2, r2f) = functionalities(kb2)
    val prop = collection.mutable.Map.empty[(Pair, Pair), Double]
    for ((s, d, rr1, rr2) <- edges) {
      val wF = f1(rr1) * f2(rr2)
      val wR = r1f(rr1) * r2f(rr2)
      prop((s, d)) = math.max(prop.getOrElse((s, d), 0.0), wF)
      prop((d, s)) = math.max(prop.getOrElse((d, s), 0.0), wR)
    }
    prop.toSeq.groupBy(_._1._1)
      .view.mapValues(_.map { case ((_, d), w) => (d, w) }).toMap
  }

  /** Run from seeds over the weighted neighbour lists of `neighbours`. */
  def run(bySrc: Map[Pair, Seq[(Pair, Double)]], seeds: Set[Pair]): Set[Pair] = {
    var probs: Map[Pair, Double] = seeds.map(_ -> 1.0).toMap
    for (_ <- 1 to Iterations) {
      val next = collection.mutable.Map.empty[Pair, Double]
      for ((src, p) <- probs if p > 1e-3; (dst, w) <- bySrc.getOrElse(src, Seq.empty)) {
        val old = next.getOrElse(dst, 0.0)
        next(dst) = 1.0 - (1.0 - old) * (1.0 - w * p)
      }
      for (s <- seeds) next(s) = 1.0
      probs = next.toMap
    }

    // Greedy 1:1: best counterpart per entity above threshold.
    val used1 = collection.mutable.Set.empty[Long]
    val used2 = collection.mutable.Set.empty[Long]
    val out = collection.mutable.Set.empty[Pair]
    for (((p1, p2), _) <- probs.toSeq.filter(_._2 >= Threshold).sortBy(-_._2)) {
      if (!used1(p1) && !used2(p2)) { used1 += p1; used2 += p2; out += ((p1, p2)) }
    }
    out.toSet ++ seeds
  }
}
