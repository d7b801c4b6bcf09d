package repro.core.prop

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import scala.collection.mutable

/** Distant match propagation and inferred-set discovery (§V-C, §VI-B, Alg. 2).
  *
  * The probabilistic ER graph edge (v, v′) has length −log Pr[m_{v′}|m_v];
  * by the Markov chain rule (Eq. 10) the best lower bound on Pr[m_p|m_q] is
  * exp(−dist(q, p)) over the shortest path, so
  *   inferred(q) = { p : dist(q, p) ≤ ζ = −log τ }.
  * The paper's Algorithm 2 is a Floyd–Warshall variant; here each source runs
  * an exact Dijkstra on the driver that stops expanding at ζ, so paths of any
  * hop count are found. Only edges of length ≤ ζ can lie on such a path. When
  * every edge source is itself a source, as in `Remp.prepare`, each such edge
  * is also a one-hop output row, so the collected graph is never larger than
  * the result the caller collects anyway.
  */
object DistantPropagation {

  private type Pair = (Long, Long)

  /** inferred(q) for every source, as [qId1, qId2, pId1, pId2, prob],
    * including the trivial (q, q, 1) rows, sorted by (qId1, qId2, pId1, pId2).
    *
    * `probEdges`: [srcId1, srcId2, dstId1, dstId2, prob];
    * `sources`:   [id1, id2] — the candidate question set C.
    * The result is a local DataFrame.
    */
  def inferredSets(
      spark: SparkSession,
      probEdges: DataFrame,
      sources: DataFrame,
      tau: Double): DataFrame = {
    import spark.implicits._
    val zeta = -math.log(tau) + 1e-12
    val edges = probEdges
      .filter(col("prob") > 0)
      .withColumn("len", -log(col("prob")))
      .filter(col("len") <= zeta)
      .select("srcId1", "srcId2", "dstId1", "dstId2", "len")
      .collect()
      .map(r => ((r.getLong(0), r.getLong(1)), (r.getLong(2), r.getLong(3)), r.getDouble(4)))
    val srcs = sources.select("id1", "id2").collect().map(r => (r.getLong(0), r.getLong(1)))

    val adj = edges.groupBy(_._1).view.mapValues(_.map(e => (e._2, e._3))).toMap
      .withDefaultValue(Array.empty[(Pair, Double)])

    val rows = srcs.distinct.sorted.iterator.flatMap { case q @ (q1, q2) =>
      boundedDijkstra(adj, q, zeta).iterator.map { case ((p1, p2), dist) =>
        // StrictMath, like the Spark log() that computed the lengths: the
        // same bits on every JVM, whatever its Math intrinsics.
        (q1, q2, p1, p2, StrictMath.exp(-dist))
      }
    }.toSeq
    rows.toDF("qId1", "qId2", "pId1", "pId2", "prob")
  }

  /** Shortest distances ≤ `zeta` from `source`, as (vertex, dist) pairs in
    * vertex order.
    */
  private def boundedDijkstra(
      adj: Map[Pair, Array[(Pair, Double)]], source: Pair, zeta: Double): Array[(Pair, Double)] = {
    val dist = mutable.HashMap(source -> 0.0)
    val settled = mutable.HashSet.empty[Pair]
    val heap = mutable.PriorityQueue((0.0, source))(Ordering.by[(Double, Pair), Double](_._1).reverse)
    while (heap.nonEmpty) {
      val (d, u) = heap.dequeue()
      if (settled.add(u)) {
        for ((v, len) <- adj(u)) {
          val nd = d + len
          if (nd <= zeta && nd < dist.getOrElse(v, Double.PositiveInfinity)) {
            dist(v) = nd
            heap.enqueue((nd, v))
          }
        }
      }
    }
    dist.toArray.sortBy(_._1)
  }
}
