package repro.core

import repro.{PreparedDump, SparkSpec}
import repro.baselines.{Corleone, Power, Sigma}
import repro.core.truth.WorkerPool
import repro.synth.KBPairGen
import repro.tables.Tables

/** `prepare`, a seeded crowd session and the table harness's baselines give
  * bit-identical outputs whatever the shuffle partition count and the
  * adaptive query execution setting.
  */
class SettingsIndependenceSpec extends SparkSpec {

  private val Partitions = "spark.sql.shuffle.partitions"
  private val Adaptive = "spark.sql.adaptive.enabled"

  /** `body` run under the given settings; the session's own are restored. */
  private def under[A](partitions: Int, aqe: Boolean)(body: => A): A = {
    val saved = Seq(Partitions, Adaptive).map(k => k -> spark.conf.get(k))
    spark.conf.set(Partitions, partitions.toLong)
    spark.conf.set(Adaptive, aqe)
    try body
    finally saved.foreach { case (k, v) => spark.conf.set(k, v) }
  }

  /** The dump of `prepare` and one session's questions, loops and matches. */
  private def outputs(pair: KBPairGen.KBPair, partitions: Int, aqe: Boolean): (Seq[String], (Int, Int, Seq[Remp.Pair])) =
    under(partitions, aqe) {
      val p = Remp.prepare(spark, pair)
      val r = Remp.resolve(p, WorkerPool.fixedError(0.05, seed = 3L))
      (PreparedDump(p), (r.questions, r.loops, r.matches.toSeq.sorted))
    }

  test("prepare and a session are the same under shuffle partitions {4, 64} × AQE {off, on}") {
    // Small, yet large enough for NeighborPropagation's per-group sums to
    // differ at 64 partitions if they followed the shuffle order.
    val pair = KBPairGen.generate(spark, KBPairGen.profile("iimb", scale = 0.1))
    val (dump, session) = outputs(pair, 4, aqe = false)
    for ((partitions, aqe) <- Seq((64, false), (4, true), (64, true))) {
      val (d, s) = outputs(pair, partitions, aqe)
      val diff = dump.zipAll(d, "", "").zipWithIndex.collect { case ((a, b), i) if a != b =>
        s"line $i: ${a.take(120)} | ${b.take(120)}" }
      assert(diff.isEmpty, s"partitions=$partitions aqe=$aqe: ${diff.size} dump lines differ, e.g. ${diff.take(3).mkString("; ")}")
      assert(s == session, s"partitions=$partitions aqe=$aqe: session differs")
    }
  }

  test("POWER, Corleone and SiGMa answer the same under shuffle partitions {4, 64}") {
    val differing = Tables.Profiles.flatMap { profile =>
      // A fresh copy of the cached context, so its features are built under
      // each setting.
      val shared = Tables.ctx(spark, profile, scale = 0.25)
      val seeds = shared.gold.toSeq.sorted.take(shared.gold.size / 2).toSet
      def answers(partitions: Int) = under(partitions, aqe = false) {
        val c = shared.copy()
        def pool(seed: Long) = WorkerPool.fixedError(0.05, seed = seed).withDifficulty(c.difficultyFn, seed)
        Seq(
          "POWER" -> Power.run(c.candFeatures, c.gold, pool(103)),
          "Corleone" -> Corleone.run(c.candFeatures, c.gold, pool(104)),
          "SiGMa" -> Sigma.run(c.prepared.edges, c.prepared.priors, seeds))
      }
      answers(4).zip(answers(64)).collect { case ((name, a), (_, b)) if a != b => s"$profile $name" }
    }
    assert(differing.isEmpty, s"answers differ at 4 and 64 shuffle partitions: ${differing.mkString(", ")}")
  }

  test("SiGMa breaks ties the same way under shuffle partitions {4, 64}") {
    // Each seed has two neighbours with equal scores that share a KB1
    // entity, so the 1:1 constraint commits whichever leaves the queue first.
    val n = 20L
    val seeds = (0L until n).map(i => (i, 1000 + i)).toSet
    val rows = seeds.toSeq.flatMap { case (i, j) =>
      Seq((i, j, 100 + i, 2000 + i), (i, j, 100 + i, 3000 + i)) }
    val edges = spark.createDataFrame(rows).toDF("srcId1", "srcId2", "dstId1", "dstId2")
    val prior = rows.map(r => (r._3, r._4) -> 0.5).toMap ++ seeds.map(_ -> 1.0)
    val Seq(few, many) = Seq(4, 64).map(k => under(k, aqe = false)(Sigma.run(edges, prior, seeds)))
    assert(few.size == 2 * n)
    assert(few == many)
  }
}
