package repro.baselines

import repro.SparkSpec
import repro.core.Metrics
import repro.core.truth.WorkerPool
import repro.tables.Tables

class BaselinesSpec extends SparkSpec {

  private val scale = 0.25
  private lazy val ctx = Tables.ctx(spark, "iimb", scale)
  private lazy val seeds50 = ctx.gold.toSeq.sortBy(identity)
    .take(ctx.gold.size / 2).toSet

  // --- PARIS ---
  test("PARIS propagates seeds to new matches") {
    val out = Paris.run(ctx.parisNeighbours, seeds50)
    assert(out.size > seeds50.size)
  }
  test("PARIS F1 grows with seeds") {
    val few = ctx.gold.toSeq.sortBy(identity).take(ctx.gold.size / 5).toSet
    val f1Few = Metrics.prfSets(
      Paris.run(ctx.parisNeighbours, few), ctx.gold).f1
    val f1Half = Metrics.prfSets(
      Paris.run(ctx.parisNeighbours, seeds50), ctx.gold).f1
    assert(f1Half >= f1Few)
  }
  test("PARIS output is 1:1 apart from the given seeds") {
    val out = Paris.run(ctx.parisNeighbours, seeds50) -- seeds50
    assert(out.toSeq.map(_._1).distinct.size == out.size)
  }
  test("PARIS with empty seeds finds nothing") {
    assert(Paris.run(ctx.parisNeighbours, Set.empty).isEmpty)
  }

  // --- SiGMa ---
  test("SiGMa propagates seeds to new matches with decent precision") {
    val out = Sigma.run(ctx.sigmaNeighbours, ctx.prepared.priors, seeds50)
    assert(out.size > seeds50.size)
    val prf = Metrics.prfSets(out, ctx.gold)
    assert(prf.precision > 0.5, s"$prf")
  }
  test("SiGMa enforces a hard 1:1 matching") {
    val out = Sigma.run(ctx.sigmaNeighbours, ctx.prepared.priors, seeds50)
    assert(out.toSeq.map(_._1).distinct.size == out.size)
    assert(out.toSeq.map(_._2).distinct.size == out.size)
  }
  test("SiGMa includes all non-conflicting seeds") {
    val out = Sigma.run(ctx.sigmaNeighbours, ctx.prepared.priors, seeds50)
    assert(seeds50.subsetOf(out))
  }

  // --- crowd baselines ---
  private def pool(seed: Long) = WorkerPool.fixedError(0.05, seed = seed)

  test("HIKE resolves the dataset with a nontrivial question count") {
    val r = Hike.run(ctx.candFeatures, ctx.gold, pool(1))
    assert(r.questions > 0)
    assert(Metrics.prfSets(r.matches, ctx.gold).f1 > 0.3, s"${Metrics.prfSets(r.matches, ctx.gold)}")
  }
  test("POWER resolves every similarity-vector group") {
    val r = Power.run(ctx.candFeatures, ctx.gold, pool(2))
    assert(r.questions > 0)
    assert(Metrics.prfSets(r.matches, ctx.gold).f1 > 0.3)
  }
  test("Corleone active learning terminates and classifies") {
    val r = Corleone.run(ctx.candFeatures, ctx.gold, pool(3))
    assert(r.questions >= 4) // at least the seed labels
    assert(Metrics.prfSets(r.matches, ctx.gold).f1 > 0.3)
  }
  test("Remp needs fewer questions than every crowd baseline at comparable F1") {
    val remp = repro.core.Remp.resolve(ctx.prepared, pool(4), repro.core.Remp.Config())
    val h = Hike.run(ctx.candFeatures, ctx.gold, pool(5))
    val w = Power.run(ctx.candFeatures, ctx.gold, pool(6))
    val c = Corleone.run(ctx.candFeatures, ctx.gold, pool(7))
    assert(remp.questions < h.questions, s"remp=${remp.questions} hike=${h.questions}")
    assert(remp.questions < w.questions, s"remp=${remp.questions} power=${w.questions}")
    assert(remp.questions < c.questions, s"remp=${remp.questions} corleone=${c.questions}")
  }
  test("crowd answers are deterministic per pool seed") {
    val a = Hike.run(ctx.candFeatures, ctx.gold, pool(9))
    val b = Hike.run(ctx.candFeatures, ctx.gold, pool(9))
    assert(a.matches == b.matches && a.questions == b.questions)
  }
}
