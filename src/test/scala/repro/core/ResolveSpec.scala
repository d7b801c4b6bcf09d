package repro.core

import org.apache.spark.sql.functions.{col, concat, concat_ws, lit}
import repro.{SparkSpec, TestKBs}
import repro.core.Remp.{Config, Pair, Prepared, Selection}
import repro.core.graph.PartialOrderPruning
import repro.core.truth.WorkerPool
import repro.kb.KB
import repro.synth.KBPairGen.KBPair
import repro.tables.Tables

/** `Remp.resolve` on the pair-numbered inferred graph: equal to the
  * Map-based `ReferenceResolve`, defined on degenerate inputs, and counting
  * its truncations.
  */
class ResolveSpec extends SparkSpec {

  private val scale = 0.25
  private lazy val iimb = Tables.ctx(spark, "iimb", scale)
  private lazy val da = Tables.ctx(spark, "da", scale)

  /** Both crowd loops, each with a fresh pool from `pool`. */
  private def both(p: Prepared, pool: () => WorkerPool, cfg: Config): (Remp.Result, Remp.Result) =
    (Remp.resolve(p, pool(), cfg), ReferenceResolve.resolve(p, pool(), cfg))

  /** A `Prepared` built by hand: no Spark artifacts, every vector (0.0). */
  private def handBuilt(inferred: Map[Pair, Seq[Pair]], priors: Map[Pair, Double], gold: Set[Pair]): Prepared = {
    val none = spark.emptyDataFrame
    Prepared(0L, none, none, Nil, none, none, Map.empty, none,
      inferred.map { case (q, ps) => q -> ps.map(p => (p, 1.0)) }, priors,
      priors.map { case (p, _) => p -> Array(0.0) }, inferred.keySet, priors.keySet -- inferred.keySet, gold)
  }

  private def p(i: Int): Pair = (i.toLong, 100L + i)

  /** Workers of quality 0.5: every label leaves the posterior at the prior. */
  private def uninformative(): WorkerPool = new WorkerPool(IndexedSeq(0.5), 1L)

  test("resolve equals ReferenceResolve on iimb and da for every selection, μ and pool") {
    for {
      (name, c) <- Seq("iimb" -> iimb, "da" -> da)
      selection <- Seq(Selection.Greedy, Selection.MaxInf, Selection.MaxPr)
      mu <- Seq(1, 10)
      (poolName, pool) <- Seq[(String, () => WorkerPool)](
        "oracle" -> (() => WorkerPool.oracle()),
        "fixedError(0.05)" -> (() => WorkerPool.fixedError(0.05, seed = 5L)))
    } {
      val (got, want) = both(c.prepared, pool, Config(mu = mu, selection = selection))
      assert(got == want, s"$name, $selection, μ=$mu, $poolName")
      // Duplicate rows fall into fewer groups than there are rows.
      assert(got.trainingGroups > 0 && got.trainingGroups < got.trainingPositives + got.trainingNegatives)
    }
  }

  test("μ larger than the askable set asks the whole askable set in one round") {
    val g = iimb.prepared.graph
    val askable = g.askable(new Array[Byte](g.size))
    for (selection <- Seq(Selection.Greedy, Selection.MaxPr)) {
      val cfg = Config(mu = askable.length + 5, selection = selection)
      val (got, want) = both(iimb.prepared, () => WorkerPool.oracle(), cfg)
      assert(got == want, s"$selection")
      assert(got.loops == 1 && !got.loopCapped, s"$selection")
      // Greedy skips the pairs whose gain has fallen to 0; MaxPr asks all.
      assert(got.questions <= askable.length && got.questions > 0, s"$selection")
      if (selection == Selection.MaxPr) assert(got.questions == askable.length)
    }
  }

  test("maxLoops = 0 asks nothing, reports the cap, and the classifier finds nothing to learn") {
    val (got, want) = both(iimb.prepared, () => WorkerPool.oracle(), Config(maxLoops = 0))
    assert(got == want)
    assert(got.questions == 0 && got.loops == 0 && got.loopCapped)
    assert(got.matches.isEmpty) // every training row is a negative
    assert(got.trainingPositives == 0 && got.trainingNegatives == iimb.prepared.connected.size)
    assert(got.trainingGroups == 0) // no forest is fitted
  }

  test("τ = 1 infers only probability-1 pairs, and resolve runs on that graph") {
    val cfg = Config(tau = 1.0)
    val prepared = Remp.prepare(spark, iimb.pair, cfg)
    // ζ = −log τ carries a 1e-12 slack for rounding.
    assert(prepared.inferred.values.flatten.forall(_._2 >= math.exp(-1e-12)))
    val (got, want) = both(prepared, () => WorkerPool.oracle(), cfg)
    assert(got == want)
    val askable = prepared.graph.askable(new Array[Byte](prepared.graph.size))
    assert((got.loops == 0) == askable.isEmpty)
    assert(got.labelledMatches.size + got.inferredMatches.size <= prepared.connected.size)
  }

  test("no relationships: no connected pair, an empty graph, and the classifier has no positives") {
    val (kb1, kb2) = TestKBs.figure1(spark)
    def noRels(kb: KB): KB = kb.copy(rels = kb.rels.limit(0))
    import spark.implicits._
    val pair = KBPair(noRels(kb1), noRels(kb2), TestKBs.figure1Gold.toSeq.toDF("id1", "id2"), Nil)
    val prepared = Remp.prepare(spark, pair)
    assert(prepared.connected.isEmpty && prepared.isolated.nonEmpty)
    assert(prepared.graph.size == 0)
    assert(prepared.graph.offsets.sameElements(Array(0)) && prepared.graph.targets.isEmpty)
    val (got, want) = both(prepared, () => WorkerPool.oracle(), Config())
    assert(got == want)
    assert(got.questions == 0 && got.loops == 0 && !got.loopCapped && got.matches.isEmpty)
  }

  /** The pair of `kb1` and `kb2` with the figure-1 gold set. */
  private def figure1Pair(kb1: KB, kb2: KB): KBPair = {
    import spark.implicits._
    KBPair(kb1, kb2, TestKBs.figure1Gold.toSeq.toDF("id1", "id2"), Nil)
  }

  /** The retained pairs as (pair, similarity vector). */
  private def retainedVectors(p: Prepared): Map[Pair, Seq[Double]] =
    p.retained.select("id1", "id2", "vec").collect()
      .map(r => (r.getLong(0), r.getLong(1)) -> r.getSeq[Double](2)).toMap

  test("labels that share tokens but never match exactly: no initial or attribute matches, empty vectors") {
    val (kb1, kb2) = TestKBs.figure1(spark)
    // Each KB2 label gains a token of its own, so no two labels are equal.
    val renamed = kb2.copy(entities =
      kb2.entities.withColumn("label", concat_ws(" ", col("label"), concat(lit("v"), col("id")))))
    val prepared = Remp.prepare(spark, figure1Pair(kb1, renamed))
    assert(prepared.numCandidates > 0 && prepared.mIn.isEmpty && prepared.attrMatches.isEmpty)
    val vectors = retainedVectors(prepared)
    assert(vectors.values.forall(_.isEmpty))
    // No vector dominates another, so pruning keeps every candidate.
    assert(vectors.size == prepared.numCandidates)
    assert(prepared.connected ++ prepared.isolated == vectors.keySet)
    val (got, want) = both(prepared, () => WorkerPool.oracle(), Config())
    assert(got == want)
    assert(got.matches.subsetOf(vectors.keySet) && !got.loopCapped)
  }

  test("an empty KB: no candidate, an empty graph and an empty result") {
    val (_, kb2) = TestKBs.figure1(spark)
    val empty = KB.fromLocal(spark, Seq.empty, Seq.empty, Seq.empty)
    for (pair <- Seq(figure1Pair(empty, kb2), figure1Pair(kb2, empty))) {
      val prepared = Remp.prepare(spark, pair)
      assert(prepared.numCandidates == 0 && prepared.retained.isEmpty && prepared.edges.isEmpty)
      assert(prepared.priors.isEmpty && prepared.connected.isEmpty && prepared.isolated.isEmpty)
      assert(prepared.graph.size == 0 && prepared.isolatedVectors.isEmpty)
      val (got, want) = both(prepared, () => WorkerPool.oracle(), Config())
      assert(got == want)
      assert(got.questions == 0 && got.loops == 0 && !got.loopCapped && got.matches.isEmpty)
      assert(got.prf == Metrics.PRF(0.0, 0.0, 0.0) && got.trainingGroups == 0)
    }
  }

  test("k = 1 keeps exactly the pairs no other pair of their blocks dominates") {
    val cfg = Config(k = 1)
    val prepared = Remp.prepare(spark, iimb.pair, cfg)
    val atK4 = retainedVectors(iimb.prepared)
    val atK1 = retainedVectors(prepared)
    // On iimb, k = 4 retains every candidate, so its pairs hold every
    // dominator: k = 1 keeps those dominated in neither block.
    assert(atK4.size == iimb.prepared.numCandidates)
    val undominated = atK4.filter { case ((a, b), v) =>
      !atK4.exists { case ((c, e), w) => (c == a || e == b) && PartialOrderPruning.strictlyDominates(w, v) }
    }
    assert(atK1.keySet == undominated.keySet && atK1.size < atK4.size)
    val (got, want) = both(prepared, () => WorkerPool.fixedError(0.05, seed = 5L), cfg)
    assert(got == want)
    assert(got.matches.subsetOf(atK1.keySet) && got.prf.f1 > 0)
  }

  test("no isolated pairs: the classifier has nothing to classify") {
    val inferred = Map(p(1) -> Seq(p(1), p(2)), p(2) -> Seq(p(2), p(1)), p(3) -> Seq(p(3), p(1)))
    val prepared = handBuilt(inferred, Map(p(1) -> 0.9, p(2) -> 0.6, p(3) -> 0.3), Set(p(1), p(2)))
    assert(prepared.isolated.isEmpty)
    val (got, want) = both(prepared, () => WorkerPool.oracle(), Config())
    assert(got == want)
    assert(got.classifierMatches.isEmpty)
    assert(got.matches == Set(p(1), p(2)) && got.prf.f1 == 1.0)
    assert(got.trainingPositives == 2 && got.trainingNegatives == 1 && got.trainingGroups == 0)
  }

  test("maxLoops ends a session whose questions stay unresolved, and both truncations are counted") {
    // Three pairs that infer each other, all at prior 0.5: with labels that
    // carry no evidence every verdict leaves its question unresolved.
    val all = Seq(p(1), p(2), p(3))
    val prepared = handBuilt(all.map(q => q -> all).toMap, all.map(_ -> 0.5).toMap, Set(p(1)))
    val (one, oneRef) = both(prepared, () => uninformative(), Config(mu = 2, maxLoops = 1))
    assert(one == oneRef)
    assert(one.loops == 1 && one.questions == 2 && one.loopCapped && one.hardVerdicts == 2)
    val (many, _) = both(prepared, () => uninformative(), Config(mu = 2, maxLoops = 7))
    assert(many.loops == 7 && many.loopCapped && many.hardVerdicts == 14)
  }

  test("a session that runs out of askable pairs is not capped and, with the oracle, meets no hard question") {
    val capped = Remp.resolve(da.prepared, WorkerPool.oracle(), Config(mu = 1, maxLoops = 1))
    assert(capped.loops == 1 && capped.loopCapped)
    val full = Remp.resolve(da.prepared, WorkerPool.oracle(), Config(mu = 1))
    assert(!full.loopCapped && full.hardVerdicts == 0)
    assert(full.loops > 1)
  }
}
