package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.core.graph._
import repro.core.prop._
import repro.core.select.{InferredGraph, QuestionSelection}
import repro.core.truth._
import repro.kb.{KB, KBAug}
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

  /** The settings of a run. The thresholds of ER-graph construction (§IV)
    * are fixed: candidate blocking's label Jaccard, attribute matching's
    * least similarity and the literal similarity of sim_L.
    */
  final case class Config(
      k: Int = 4,
      tau: Double = 0.9,
      mu: Int = 10,
      maxLoops: Int = 500,
      selection: Selection = Selection.Greedy) {
    require(tau > 0 && tau <= 1, s"tau must lie in (0, 1], got $tau")
    require(mu >= 1, s"mu must be at least 1, got $mu")
    require(k >= 1, s"k must be at least 1, got $k")
    require(maxLoops >= 0, s"maxLoops must not be negative, got $maxLoops")
    val jaccardThreshold = 0.3
    val attrMinSim = 0.4
    val literalThreshold = 0.9
  }

  /** Everything computed before the first crowd round. All competing methods
    * consume the same retained matches M_rd (as in the paper's setup).
    * `graph` numbers the connected pairs and holds their inferred sets and
    * priors for the crowd loop. The isolated-pair classifier's inputs that
    * no crowd changes are built with it, once, with the `Prepared`:
    * `features(i)` is connected pair i's row (its vector, then its prior);
    * `isolatedPairs` are the isolated pairs in pair order; `isolatedVectors`
    * are their distinct rows, and `isolatedVector(j)` is isolated pair j's
    * index into them.
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
      gold: Set[Pair]) {
    val graph: InferredGraph = InferredGraph(connected, p => inferred(p).map(_._1), priors)
    private def feature(p: Pair): Array[Double] = vecs(p) :+ priors(p)
    val features: Array[Array[Double]] = graph.pairs.map(feature)
    val isolatedPairs: Array[Pair] = isolated.toArray.sorted
    private val isolatedRows = RandomForest.distinct(isolatedPairs.map(feature))
    val isolatedVector: Array[Int] = isolatedRows._1
    val isolatedVectors: Array[Array[Double]] = isolatedRows._2.map(j => feature(isolatedPairs(j)))
  }

  /** One crowd session's outcome. `loopCapped`: `maxLoops` ended the loop
    * while some pair was still askable. `hardVerdicts`: the verdicts that
    * left their question unresolved (§VII-A), counted per question asked.
    * The isolated-pair classifier's training set: `trainingPositives` and
    * `trainingNegatives` rows, which fell into `trainingGroups` distinct
    * (row, label) groups; 0 groups when no forest was fitted.
    */
  final case class Result(
      matches: Set[Pair],
      questions: Int,
      loops: Int,
      prf: Metrics.PRF,
      labelledMatches: Set[Pair],
      inferredMatches: Set[Pair],
      classifierMatches: Set[Pair],
      loopCapped: Boolean,
      hardVerdicts: Int,
      trainingPositives: Int,
      trainingNegatives: Int,
      trainingGroups: Int)

  def goldSet(gold: DataFrame): Set[Pair] =
    gold.select("id1", "id2").collect().map(r => (r.getLong(0), r.getLong(1))).toSet

  /** Stages 1–2 of the workflow: ER graph construction + propagation model.
    * Relationships are augmented with inverses (KBAug) so propagation flows
    * both ways along every triple.
    *
    * The pair's KBs should come cached, as `KBPairGen.generate` leaves them:
    * `prepare` caches only the relationships it derives from them.
    */
  def prepare(spark: SparkSession, pair: KBPair, cfg: Config = Config()): Prepared = {
    def withInverses(kb: KB): KB = {
      val aug = KBAug.withInverses(kb)
      aug.copy(rels = aug.rels.cache())
    }
    val kb1 = withInverses(pair.kb1)
    val kb2 = withInverses(pair.kb2)
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

    val inferred = DistantPropagation.inferred(
      probEdges, ERGraphBuilder.connectedVertices(retained, edges), cfg.tau)

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

  /** Stages 3–4, iterated: crowd loop + isolated-pair classifier. The loop
    * runs on `prepared.graph`: a copy of its priors (which hard questions
    * update) and one state byte per pair.
    */
  def resolve(prepared: Prepared, pool: WorkerPool, cfg: Config = Config()): Result = {
    import InferredGraph._
    val g = prepared.graph
    val prior = g.priors.clone()
    val state = new Array[Byte](g.size)
    def has(i: Int, flags: Int): Boolean = (state(i) & flags) != 0
    var loops = 0
    var questions = 0
    var hard = 0
    var capped = false
    var done = false
    while (!done) {
      // Stop when no unresolved pair can infer another unresolved pair (§III-B).
      val askable = g.askable(state)
      if (askable.isEmpty) done = true
      else if (loops == cfg.maxLoops) { capped = true; done = true }
      else {
        val selected = cfg.selection match {
          case Selection.MaxInf => QuestionSelection.selectMaxInf(g, state, askable, cfg.mu)
          case Selection.MaxPr  => QuestionSelection.selectMaxPr(prior, askable, cfg.mu)
          case Selection.Greedy => QuestionSelection.selectGreedy(g, prior, state, askable, cfg.mu)
        }
        if (selected.isEmpty) done = true
        else {
          loops += 1
          questions += selected.length
          // Every selected question is asked, also one that an earlier
          // question of the round has already inferred; its verdict's flag
          // then joins InferredMatch.
          for (q <- selected) {
            val pair = g.pairs(q)
            val (labels, quals) = pool.labelFor(pair, prepared.gold.contains(pair))
            WorkerPool.verdict(WorkerPool.posterior(prior(q), labels, quals)) match {
              case WorkerPool.IsMatch =>
                state(q) = (state(q) | LabelledMatch).toByte
                for (i <- g.offsets(q) until g.offsets(q + 1)) {
                  val p = g.targets(i)
                  if (state(p) == Unresolved) state(p) = InferredMatch
                }
              case WorkerPool.IsNonMatch =>
                state(q) = (state(q) | LabelledNonMatch).toByte
              case WorkerPool.Unresolved(p) =>
                prior(q) = p // hard question: damp its benefit (§VII-A)
                hard += 1
            }
          }
        }
      }
    }

    // Isolated-pair classifier (§VII-B): resolved matches are positives;
    // unresolved + labelled non-matches are negatives. Rows go in pair
    // order, a positive row before a negative one of the same pair: the
    // forest's bootstrap draws by row index. Each distinct isolated row is
    // classified once.
    val xs = Array.newBuilder[Array[Double]]
    val ys = Array.newBuilder[Boolean]
    for (i <- 0 until g.size) {
      if (has(i, LabelledMatch | InferredMatch)) { xs += prepared.features(i); ys += true }
      if (state(i) == Unresolved || has(i, LabelledNonMatch)) { xs += prepared.features(i); ys += false }
    }
    val labels = ys.result()
    val (verdicts, groups) = IsolatedClassifier.classify(xs.result(), labels, prepared.isolatedVectors)
    val classifierM = prepared.isolatedPairs.indices
      .filter(j => verdicts(prepared.isolatedVector(j))).map(prepared.isolatedPairs).toSet
    val positives = labels.count(identity)

    def flagged(flag: Int): Set[Pair] = g.pairs.indices.filter(has(_, flag)).map(g.pairs).toSet
    val labelledM = flagged(LabelledMatch)
    val inferredM = flagged(InferredMatch)
    val matches = labelledM ++ inferredM ++ classifierM
    Result(matches, questions, loops, Metrics.prfSets(matches, prepared.gold),
      labelledM, inferredM, classifierM, capped, hard, positives, labels.length - positives, groups)
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
