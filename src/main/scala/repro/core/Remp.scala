package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.core.graph._
import repro.core.prop._
import repro.core.select.QuestionSelection
import repro.core.truth._
import repro.kb.KBAug
import repro.synth.KBPairGen.KBPair

/** The full Remp pipeline (§III-B workflow) — ER graph construction,
  * relational match propagation, multiple questions selection and
  * error-tolerant truth inference, iterated until no unresolved pair can be
  * inferred by propagation, then the isolated-pair classifier.
  */
object Remp {

  type Pair = (Long, Long)

  /** How `resolve` picks each round's questions (§VI): Algorithm 3, or the
    * MaxInf / MaxPr heuristics of Fig. 5.
    */
  sealed trait Selection
  object Selection {
    case object Greedy extends Selection
    case object MaxInf extends Selection
    case object MaxPr extends Selection
  }

  final case class Config(
      k: Int = 4,
      tau: Double = 0.9,
      mu: Int = 10,
      jaccardThreshold: Double = 0.3,
      attrMinSim: Double = 0.4,
      literalThreshold: Double = 0.9,
      maxLoops: Int = 500,
      selection: Selection = Selection.Greedy) {
    require(tau > 0 && tau <= 1, s"tau must lie in (0, 1], got $tau")
    require(mu >= 1, s"mu must be at least 1, got $mu")
    require(k >= 1, s"k must be at least 1, got $k")
    require(maxLoops >= 0, s"maxLoops must not be negative, got $maxLoops")
  }

  /** Everything computed before the first crowd round. All competing methods
    * consume the same retained matches M_rd (as in the paper's setup).
    */
  final case class Prepared(
      numCandidates: Long,
      candidates: DataFrame,                  // pre-pruning M_c [id1,id2,prior,exact]
      mIn: DataFrame,
      attrMatches: Seq[(String, String, Double)],
      retained: DataFrame,                    // [id1,id2,prior,exact,vec]
      edges: DataFrame,
      consistency: Map[(String, String), ConsistencyEstimator.Consistency],
      probEdges: DataFrame,
      inferred: Map[Pair, Seq[(Pair, Double)]],
      priors: Map[Pair, Double],
      vecs: Map[Pair, Array[Double]],
      connected: Set[Pair],
      isolated: Set[Pair],
      gold: Set[Pair])

  final case class Result(
      matches: Set[Pair],
      questions: Int,
      loops: Int,
      prf: Metrics.PRF,
      labelledMatches: Set[Pair],
      inferredMatches: Set[Pair],
      classifierMatches: Set[Pair])

  def goldSet(gold: DataFrame): Set[Pair] =
    gold.select("id1", "id2").collect().map(r => (r.getLong(0), r.getLong(1))).toSet

  /** Stages 1–2 of the workflow: ER graph construction + propagation model.
    * Relationships are augmented with inverses (KBAug) so propagation flows
    * both ways along every triple.
    */
  def prepare(spark: SparkSession, pair: KBPair, cfg: Config = Config()): Prepared = {
    val kb1 = KBAug.withInverses(pair.kb1).cache()
    val kb2 = KBAug.withInverses(pair.kb2).cache()
    val cands = CandidateGen.candidates(kb1, kb2, cfg.jaccardThreshold).cache()
    val numCandidates = cands.count()
    val mIn = CandidateGen.initialMatches(cands).cache()

    val attrSims = AttributeMatcher.attributeSimilarities(spark, kb1, kb2, mIn, cfg.literalThreshold)
    val attrMatches = AttributeMatcher.matchAttributes(attrSims, cfg.attrMinSim)

    val withVec = SimVectors.withVectors(spark, cands, kb1, kb2, attrMatches, cfg.literalThreshold).cache()
    val retained = PartialOrderPruning.prune(spark, withVec, cfg.k).cache()

    val edges = ERGraphBuilder.edges(retained, kb1, kb2).cache()
    // Likely value matches for ε-estimation: every candidate with a prior at
    // or above the noisy-label band (an exact-labels-only count biases ε down).
    val likelyMatches = cands.filter(col("prior") >= 0.4)
    val consistency = ConsistencyEstimator.estimate(spark, kb1, kb2, mIn, Some(likelyMatches))
    val probEdges = NeighborPropagation.probabilisticEdges(
      spark, edges, retained.select("id1", "id2", "prior"), consistency).cache()

    val inferred = DistantPropagation.inferredSets(
      spark, probEdges, ERGraphBuilder.connectedVertices(retained, edges), cfg.tau).collect()
      .map(r => ((r.getLong(0), r.getLong(1)), ((r.getLong(2), r.getLong(3)), r.getDouble(4))))
      .groupBy(_._1).view.mapValues(_.map(_._2).toSeq).toMap

    val rows = retained.select("id1", "id2", "prior", "vec").collect()
    val priors = rows.map(r => ((r.getLong(0), r.getLong(1)), r.getDouble(2))).toMap
    val vecs = rows.map(r => ((r.getLong(0), r.getLong(1)),
      r.getSeq[Double](3).toArray)).toMap
    // Every source has an inferred list, which holds at least itself.
    val connected = inferred.keySet
    val isolated = priors.keySet.diff(connected)

    Prepared(numCandidates, cands, mIn, attrMatches, retained, edges, consistency,
      probEdges, inferred, priors, vecs, connected, isolated, goldSet(pair.gold))
  }

  /** Stages 3–4, iterated: crowd loop + isolated-pair classifier. */
  def resolve(prepared: Prepared, pool: WorkerPool, cfg: Config = Config()): Result = {
    val priors = collection.mutable.Map(prepared.priors.toSeq: _*)
    val unresolved = collection.mutable.Set(prepared.connected.toSeq: _*)
    val labelledM = collection.mutable.Set.empty[Pair]
    val inferredM = collection.mutable.Set.empty[Pair]
    val labelledN = collection.mutable.Set.empty[Pair]
    var loops = 0
    var questions = 0
    val inferredSeqs: Map[Pair, Seq[Pair]] =
      prepared.inferred.view.mapValues(_.map(_._1)).toMap

    var continue = true
    while (continue && loops < cfg.maxLoops) {
      // Stop when no unresolved pair can infer another unresolved pair (§III-B).
      // Every connected pair is a propagation source, so it has an inferred
      // list (holding at least itself) and a prior.
      val askable = unresolved.filter { q =>
        inferredSeqs(q).exists(p => p != q && unresolved.contains(p))
      }.toSet
      if (askable.isEmpty) continue = false
      else {
        val snapshot = priors.toMap
        val selected = cfg.selection match {
          case Selection.MaxInf => QuestionSelection.selectMaxInf(inferredSeqs, askable, unresolved.toSet, cfg.mu)
          case Selection.MaxPr  => QuestionSelection.selectMaxPr(snapshot, askable, cfg.mu)
          case Selection.Greedy => QuestionSelection.selectGreedy(inferredSeqs, snapshot, askable, unresolved.toSet, cfg.mu)
        }
        if (selected.isEmpty) continue = false
        else {
          loops += 1
          questions += selected.size
          for (q <- selected) {
            val truth = prepared.gold.contains(q)
            val (labels, quals) = pool.labelFor(q, truth)
            val post = WorkerPool.posterior(priors(q), labels, quals)
            WorkerPool.verdict(post) match {
              case WorkerPool.IsMatch =>
                labelledM += q
                unresolved -= q
                for ((p, _) <- prepared.inferred(q) if p != q) {
                  if (unresolved.remove(p)) inferredM += p
                }
              case WorkerPool.IsNonMatch =>
                labelledN += q
                unresolved -= q
              case WorkerPool.Unresolved(p) =>
                priors(q) = p // hard question: damp its benefit (§VII-A)
            }
          }
        }
      }
    }

    // Isolated-pair classifier (§VII-B): resolved matches are positives;
    // unresolved + labelled non-matches are negatives. Every connected and
    // isolated pair is a retained pair, so it has a vector and a prior.
    def feat(p: Pair): Array[Double] = prepared.vecs(p) :+ prepared.priors(p)
    val positives = (labelledM ++ inferredM).toSeq.map(p => (p, feat(p), true))
    val negatives = (labelledN ++ unresolved).toSeq.map(p => (p, feat(p), false))
    val isolatedFeats = prepared.isolated.toSeq.map(p => (p, feat(p)))
    val classifierM = IsolatedClassifier.classify(positives ++ negatives, isolatedFeats)

    val matches = labelledM.toSet ++ inferredM.toSet ++ classifierM
    Result(matches, questions, loops,
      Metrics.prfSets(matches, prepared.gold),
      labelledM.toSet, inferredM.toSet, classifierM)
  }

  /** Table VI mode: propagate from given seed matches, no crowdsourcing and
    * no isolated-pair classifier (§VIII-B "effectiveness of match propagation").
    */
  def propagateFromSeeds(prepared: Prepared, seeds: Set[Pair]): Set[Pair] = {
    val inferredFromSeeds = seeds.iterator
      .flatMap(s => prepared.inferred.getOrElse(s, Seq.empty).iterator.map(_._1))
      .toSet
    seeds ++ inferredFromSeeds
  }
}
