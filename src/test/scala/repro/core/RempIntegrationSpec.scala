package repro.core

import repro.SparkSpec
import repro.core.truth.WorkerPool
import repro.tables.Tables

/** End-to-end integration of the full Remp pipeline on small synthetic
  * profiles (the same generator the benches use, at test scale).
  */
class RempIntegrationSpec extends SparkSpec {

  private val scale = 0.25
  private lazy val iimb = Tables.ctx(spark, "iimb", scale)
  private lazy val da = Tables.ctx(spark, "da", scale)

  test("prepare produces a non-trivial ER graph on iimb") {
    val p = iimb.prepared
    assert(p.numCandidates > 0)
    assert(p.priors.nonEmpty)
    assert(p.connected.nonEmpty)
    assert(p.edges.count() > 0)
    assert(p.inferred.nonEmpty)
  }
  test("attribute matching recovers gold attribute pairs on iimb") {
    val found = iimb.prepared.attrMatches.map(t => (t._1, t._2)).toSet
    val gold = iimb.pair.goldAttrMatches.toSet
    assert(found.intersect(gold).size >= gold.size / 2,
      s"found ${found.size}, overlap ${found.intersect(gold).size}")
  }
  test("oracle-label run achieves high F1 on iimb with few questions") {
    val res = Remp.resolve(iimb.prepared, WorkerPool.oracle(), Remp.Config())
    assert(res.prf.f1 > 0.6, s"F1 ${res.prf.f1}")
    assert(res.questions < iimb.prepared.connected.size,
      s"${res.questions} questions for ${iimb.prepared.connected.size} vertices")
    assert(res.loops >= 1)
  }
  test("propagation infers matches beyond the labelled ones") {
    val res = Remp.resolve(iimb.prepared, WorkerPool.oracle(), Remp.Config())
    assert(res.inferredMatches.nonEmpty)
    assert(res.inferredMatches.size > res.labelledMatches.size / 2)
  }
  test("noisy workers (5%) degrade F1 only mildly") {
    val oracle = Remp.resolve(iimb.prepared, WorkerPool.oracle(), Remp.Config())
    val noisy = Remp.resolve(iimb.prepared, WorkerPool.fixedError(0.05, seed = 42), Remp.Config())
    assert(noisy.prf.f1 > oracle.prf.f1 - 0.15, s"oracle=${oracle.prf} noisy=${noisy.prf}")
  }
  test("resolve is deterministic given the same pool seed") {
    val a = Remp.resolve(iimb.prepared, WorkerPool.fixedError(0.05, seed = 7), Remp.Config())
    val b = Remp.resolve(iimb.prepared, WorkerPool.fixedError(0.05, seed = 7), Remp.Config())
    assert(a.matches == b.matches && a.questions == b.questions)
  }
  test("larger mu asks at least as many questions in fewer loops") {
    val m1 = Remp.resolve(iimb.prepared, WorkerPool.oracle(), Remp.Config(mu = 1))
    val m10 = Remp.resolve(iimb.prepared, WorkerPool.oracle(), Remp.Config(mu = 10))
    assert(m10.loops <= m1.loops)
    assert(m10.questions >= m1.questions)
  }
  test("questions stay well below the brute-force ask-everything count") {
    val res = Remp.resolve(da.prepared, WorkerPool.oracle(), Remp.Config())
    val vertices = da.prepared.priors.size
    assert(res.questions < vertices, s"${res.questions} vs $vertices pairs")
  }
  test("propagateFromSeeds improves with seed fraction (Table VI shape)") {
    val gold = iimb.gold.toSeq.sortBy(identity)
    def f1At(frac: Double): Double = {
      val seeds = gold.take((gold.size * frac).toInt).toSet
      Metrics.prfSets(Remp.propagateFromSeeds(iimb.prepared, seeds), iimb.gold).f1
    }
    assert(f1At(0.8) > f1At(0.2))
    assert(f1At(0.8) > 0.75, s"f1@80%=${f1At(0.8)}")
  }
  test("propagateFromSeeds: a connected seed returns itself and its inferred list") {
    val p = iimb.prepared
    val (seed, list) = p.inferred.filter(_._2.size > 1).minBy(_._1)
    assert(Remp.propagateFromSeeds(p, Set(seed)) == list.map(_._1).toSet + seed)
  }
  test("propagateFromSeeds: an isolated seed returns only itself") {
    val seed = iimb.prepared.isolated.min
    assert(Remp.propagateFromSeeds(iimb.prepared, Set(seed)) == Set(seed))
  }
  test("propagateFromSeeds: a seed that is not a retained pair returns only itself") {
    val seed = (-1L, -1L)
    assert(!iimb.prepared.priors.contains(seed))
    assert(Remp.propagateFromSeeds(iimb.prepared, Set(seed)) == Set(seed))
  }
  test("selection strategy variants run and produce sane results") {
    for (s <- Seq(Remp.Selection.MaxInf, Remp.Selection.MaxPr)) {
      val res = Remp.resolve(iimb.prepared, WorkerPool.oracle(), Remp.Config(selection = s))
      assert(res.prf.f1 >= 0.0 && res.questions > 0, s"strategy $s")
    }
  }
  test("greedy selection needs no more questions than MaxPr for comparable F1") {
    val g = Remp.resolve(iimb.prepared, WorkerPool.oracle(), Remp.Config())
    val mp = Remp.resolve(iimb.prepared, WorkerPool.oracle(), Remp.Config(selection = Remp.Selection.MaxPr))
    assert(g.prf.f1 >= mp.prf.f1 - 0.1)
  }
  test("disabled classifier yields a subset of matches") {
    // The matches without the classifier's are labelled ∪ inferred; the
    // classifier adds only isolated pairs on top.
    val res = Remp.resolve(da.prepared, WorkerPool.oracle(), Remp.Config())
    val withoutC = res.labelledMatches ++ res.inferredMatches
    assert(res.matches == withoutC ++ res.classifierMatches)
    assert(res.classifierMatches.subsetOf(da.prepared.isolated))
    assert(res.classifierMatches.nonEmpty)
  }
  test("connected is the retained pairs on an edge, and isolated the rest") {
    for (c <- Seq(iimb, da)) {
      val p = c.prepared
      val endpoints = p.edges.select("srcId1", "srcId2", "dstId1", "dstId2").collect()
        .flatMap(r => Seq((r.getLong(0), r.getLong(1)), (r.getLong(2), r.getLong(3)))).toSet
      assert(p.connected.nonEmpty)
      assert(p.connected == p.priors.keySet.filter(endpoints))
      assert(p.isolated == p.priors.keySet -- p.connected)
    }
  }
  test("gold set round-trips through goldSet") {
    assert(Remp.goldSet(iimb.pair.gold) == iimb.gold)
  }
}
