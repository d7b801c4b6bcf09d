package repro.core

import repro.{PreparedDump, SparkSpec}
import repro.core.truth.WorkerPool
import repro.synth.KBPairGen

/** `prepare` and a seeded crowd session give bit-identical outputs whatever
  * the shuffle partition count and the adaptive query execution setting.
  */
class SettingsIndependenceSpec extends SparkSpec {

  private val Partitions = "spark.sql.shuffle.partitions"
  private val Adaptive = "spark.sql.adaptive.enabled"

  /** The dump of `prepare` and one session's questions, loops and matches. */
  private def outputs(pair: KBPairGen.KBPair, partitions: Int, aqe: Boolean): (Seq[String], (Int, Int, Seq[Remp.Pair])) = {
    val saved = Seq(Partitions, Adaptive).map(k => k -> spark.conf.get(k))
    spark.conf.set(Partitions, partitions.toLong)
    spark.conf.set(Adaptive, aqe)
    try {
      val p = Remp.prepare(spark, pair)
      val r = Remp.resolve(p, WorkerPool.fixedError(0.05, seed = 3L))
      (PreparedDump(p), (r.questions, r.loops, r.matches.toSeq.sorted))
    } finally saved.foreach { case (k, v) => spark.conf.set(k, v) }
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
}
