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
  * is also a one-hop entry of the result, so the collected graph is never
  * larger than the inferred sets.
  */
object DistantPropagation {

  private type Pair = (Long, Long)

  /** inferred(q) for every source q: the (p, Pr[m_p|m_q]) with
    * dist(q, p) ≤ ζ, in pair order, including (q, 1).
    *
    * `probEdges`: [srcId1, srcId2, dstId1, dstId2, prob];
    * `sources`:   [id1, id2] — the candidate question set C.
    */
  def inferred(probEdges: DataFrame, sources: DataFrame, tau: Double): Map[Pair, Seq[(Pair, Double)]] = {
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

    srcs.distinct.sorted.iterator.map(q => q -> boundedDijkstra(adj, q, zeta)).toMap
  }

  /** `inferred` as local rows [qId1, qId2, pId1, pId2, prob] sorted by (q, p). Only the
    * benchmark's replay of `prepare` (`perfbench/…/Replay.scala`) calls this view; it goes
    * with that replay in ROADMAP direction 2's benchmark change. */
  def inferredSets(spark: SparkSession, probEdges: DataFrame, sources: DataFrame, tau: Double): DataFrame = {
    import spark.implicits._
    inferred(probEdges, sources, tau).toSeq.sortBy(_._1).flatMap { case ((q1, q2), ps) =>
      ps.map { case ((p1, p2), prob) => (q1, q2, p1, p2, prob) }
    }.toDF("qId1", "qId2", "pId1", "pId2", "prob")
  }

  /** (p, exp(−dist(source, p))) for every vertex p with dist ≤ `zeta`, in
    * vertex order.
    */
  private def boundedDijkstra(
      adj: Map[Pair, Array[(Pair, Double)]], source: Pair, zeta: Double): Seq[(Pair, Double)] = {
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
    // StrictMath, like the Spark log() that computed the lengths: the same
    // bits on every JVM, whatever its Math intrinsics.
    dist.toArray.sortBy(_._1).toSeq.map { case (p, d) => (p, StrictMath.exp(-d)) }
  }
}
