package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.core.Remp
import repro.core.graph._
import repro.core.prop._
import repro.kb.KBAug
import repro.synth.KBPairGen.KBPair

/** The observable outputs of one `Remp.prepare`, collected to the driver so
  * that an untraced prepare and the traced replay can be compared exactly.
  */
final case class PrepareDigest(
    candidates: Long,
    retained: Set[(Long, Long)],
    edges: Set[(Long, Long, Long, Long, String, String)],
    probEdges: Set[(Long, Long, Long, Long, Double)],
    inferredSizes: Map[(Long, Long), Int],
    connected: Int,
    isolated: Int) {

  /** Names of the outputs on which `other` differs from this digest. */
  def drift(other: PrepareDigest): Seq[String] = Seq(
    "candidates" -> (candidates == other.candidates),
    "retained" -> (retained == other.retained),
    "edges" -> (edges == other.edges),
    "probEdges" -> (probEdges == other.probEdges),
    "inferredSizes" -> (inferredSizes == other.inferredSizes),
    "connected" -> (connected == other.connected),
    "isolated" -> (isolated == other.isolated)).collect { case (n, false) => n }
}

object PrepareDigest {
  private def pairs(df: DataFrame): Set[(Long, Long)] =
    df.select("id1", "id2").collect().map(r => (r.getLong(0), r.getLong(1))).toSet

  private def edgeSet(df: DataFrame): Set[(Long, Long, Long, Long, String, String)] =
    df.select("srcId1", "srcId2", "dstId1", "dstId2", "r1", "r2").collect()
      .map(r => (r.getLong(0), r.getLong(1), r.getLong(2), r.getLong(3), r.getString(4), r.getString(5)))
      .toSet

  private def probEdgeSet(df: DataFrame): Set[(Long, Long, Long, Long, Double)] =
    df.select("srcId1", "srcId2", "dstId1", "dstId2", "prob").collect()
      .map(r => (r.getLong(0), r.getLong(1), r.getLong(2), r.getLong(3), r.getDouble(4)))
      .toSet

  def of(p: Remp.Prepared): PrepareDigest =
    PrepareDigest(p.numCandidates, pairs(p.retained), edgeSet(p.edges), probEdgeSet(p.probEdges),
      p.inferred.view.mapValues(_.size).toMap, p.connected.size, p.isolated.size)
}

/** `Remp.prepare`, replayed stage by stage with one span per layer. Each
  * stage's output is materialised inside its span, so the stages run one
  * after another and a span's wall time is the layer's own time. The calls
  * and their order follow `Remp.prepare`; the drift guard in `Main` checks
  * that the replay reproduces its outputs exactly.
  */
object Replay {
  val Root = "core.Remp.prepare"
  val Layers: Seq[String] = Seq(
    "kb.KBAug", "graph.CandidateGen", "graph.AttributeMatcher", "graph.SimVectors",
    "graph.PartialOrderPruning", "graph.ERGraphBuilder", "prop.ConsistencyEstimator",
    "prop.NeighborPropagation", "prop.DistantPropagation")
  /** The driver-side collection at the end of `prepare`; no layer of its own. */
  val Collect = "core.Remp.collect"

  def prepare(spark: SparkSession, pair: KBPair, cfg: Remp.Config, t: Tracer): Remp.Prepared = {
    def stage[A](name: String)(body: => A)(rows: A => Long): A = t.span(name, Some(Root))(body)(rows)
    val start = System.nanoTime()

    val (kb1, kb2) = stage("kb.KBAug") {
      (KBAug.withInverses(pair.kb1).cache(), KBAug.withInverses(pair.kb2).cache())
    } { case (a, b) => a.rels.count() + b.rels.count() }

    val (cands, numCandidates, mIn) = stage("graph.CandidateGen") {
      val c = CandidateGen.candidates(kb1, kb2, cfg.jaccardThreshold).cache()
      val n = c.count()
      val m = CandidateGen.initialMatches(c).cache()
      m.count()
      (c, n, m)
    }(_._2)

    val attrMatches = stage("graph.AttributeMatcher") {
      val sims = AttributeMatcher.attributeSimilarities(spark, kb1, kb2, mIn, cfg.literalThreshold)
      AttributeMatcher.matchAttributes(sims, cfg.attrMinSim)
    }(_.size.toLong)

    val withVec = stage("graph.SimVectors") {
      SimVectors.withVectors(spark, cands, kb1, kb2, attrMatches, cfg.literalThreshold).cache()
    }(_.count())

    val retained = stage("graph.PartialOrderPruning") {
      PartialOrderPruning.prune(spark, withVec, cfg.k).cache()
    }(_.count())

    val (edges, connectedV) = stage("graph.ERGraphBuilder") {
      val e = ERGraphBuilder.edges(retained, kb1, kb2).cache()
      e.count()
      (e, ERGraphBuilder.connectedVertices(retained, e).select("id1", "id2"))
    } { case (e, _) => e.count() }

    val consistency = stage("prop.ConsistencyEstimator") {
      val likelyMatches = cands.filter(col("prior") >= 0.4)
      ConsistencyEstimator.estimate(spark, kb1, kb2, mIn, Some(likelyMatches))
    }(_.size.toLong)

    val probEdges = stage("prop.NeighborPropagation") {
      NeighborPropagation.probabilisticEdges(
        spark, edges, retained.select("id1", "id2", "prior"), consistency).cache()
    }(_.count())

    val inferredRows = stage("prop.DistantPropagation") {
      DistantPropagation.inferredSets(spark, probEdges, connectedV, cfg.tau).collect()
    }(_.length.toLong)

    val prepared = stage(Collect) {
      val inferred = inferredRows
        .map(r => ((r.getLong(0), r.getLong(1)), ((r.getLong(2), r.getLong(3)), r.getDouble(4))))
        .groupBy(_._1).view.mapValues(_.map(_._2).toSeq).toMap
      val rows = retained.select("id1", "id2", "prior", "vec").collect()
      val priors = rows.map(r => ((r.getLong(0), r.getLong(1)), r.getDouble(2))).toMap
      val vecs = rows.map(r => ((r.getLong(0), r.getLong(1)), r.getSeq[Double](3).toArray)).toMap
      val connected = connectedV.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
      val isolated = priors.keySet.diff(connected)
      Remp.Prepared(numCandidates, cands, mIn, attrMatches, retained, edges, consistency,
        probEdges, inferred, priors, vecs, connected, isolated, Remp.goldSet(pair.gold))
    }(_.priors.size.toLong)

    t.spans += Span(Root, None, start, System.nanoTime(), prepared.priors.size,
      EngineCounters())
    prepared
  }
}
