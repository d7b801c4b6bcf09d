package repro.core

import repro.{PreparedDump, SparkSpec}
import repro.baselines.{Corleone, Paris, Power, Sigma}
import repro.core.truth.WorkerPool
import repro.synth.KBPairGen
import repro.tables.Tables

/** `prepare`, a seeded crowd session and the table harness's baselines give
  * bit-identical outputs whatever the shuffle partition count and the
  * adaptive query execution setting, and SiGMa whatever its edge order.
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

  /** The dump of `prepare` and one session's questions, loops and matches.
    * Spark's cache is emptied first: the settings share one generated pair,
    * and a plan cached under the previous setting would otherwise serve
    * this one's data.
    */
  private def outputs(pair: KBPairGen.KBPair, partitions: Int, aqe: Boolean): (Seq[String], (Int, Int, Seq[Remp.Pair])) =
    under(partitions, aqe) {
      spark.catalog.clearCache()
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

  test("POWER, Corleone, SiGMa and PARIS agree at 4 and 64 partitions") {
    val differing = Tables.Profiles.flatMap { profile =>
      // A fresh copy of the cached context, with Spark's cache emptied, so
      // the ER graph's edges are computed and collected, and the features and
      // neighbour lists built, under each setting.
      val shared = Tables.ctx(spark, profile, scale = 0.25)
      val seeds = shared.gold.toSeq.sorted.take(shared.gold.size / 2).toSet
      def answers(partitions: Int) = under(partitions, aqe = false) {
        spark.catalog.clearCache()
        val c = shared.copy()
        Seq(
          "POWER" -> Power.run(c.candFeatures, c.gold, c.crowd(103)),
          "Corleone" -> Corleone.run(c.candFeatures, c.gold, c.crowd(104)),
          "SiGMa" -> Sigma.run(c.sigmaNeighbours, c.prepared.priors, seeds),
          "PARIS" -> Paris.run(c.parisNeighbours, seeds))
      }
      answers(4).zip(answers(64)).collect { case ((name, a), (_, b)) if a != b => s"$profile $name" }
    }
    assert(differing.isEmpty, s"answers differ at 4 and 64 shuffle partitions: ${differing.mkString(", ")}")
  }

  test("SiGMa breaks ties the same way whatever its edge order") {
    // Each seed has two neighbours with equal scores that share a KB1
    // entity, so the 1:1 constraint commits whichever leaves the queue first.
    val n = 20L
    val seeds = (0L until n).map(i => (i, 1000 + i)).toSet
    val rows = seeds.toSeq.sorted.flatMap { case s @ (i, _) =>
      Seq((s, (100 + i, 2000 + i)), (s, (100 + i, 3000 + i))) }
    val prior = rows.map(_._2 -> 0.5).toMap ++ seeds.map(_ -> 1.0)
    val Seq(given, reversed) =
      Seq(rows, rows.reverse).map(r => Sigma.run(Sigma.neighbours(r), prior, seeds))
    assert(given.size == 2 * n)
    assert(given == reversed)
  }
}
