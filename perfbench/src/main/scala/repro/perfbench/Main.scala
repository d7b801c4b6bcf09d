package repro.perfbench

import java.lang.management.ManagementFactory

import org.apache.spark.sql.SparkSession
import repro.core.Remp
import repro.synth.KBPairGen
import repro.synth.KBPairGen.KBPair

import scala.collection.mutable.ArrayBuffer

/** The Remp benchmark: one workload, one seed, one process.
  *
  *   Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *
  * Prints the settings, then as its last line one JSON object with the
  * end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
  * Every operation (a prepare or a crowd session) is checked; a failed check
  * or an exception counts the operation as failed.
  */
object Main {

  final case class Options(workload: Workload, seed: Long, seconds: Int, trace: Boolean)

  def parse(args: Array[String]): Options = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val w = Workload.byName(need("workload")).getOrElse(throw new IllegalArgumentException(
      s"unknown workload ${need("workload")}; one of ${Workload.All.map(_.name).mkString(", ")}"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $t")
    }
    Options(w, need("seed").toLong, need("seconds").toInt, trace)
  }

  /** Settings pinned by the benchmark rather than taken from the caller. */
  final case class Settings(cores: Int, workDir: String) {
    def master: String = s"local[$cores]"
    def describe: String =
      s"master=$master shuffle.partitions=$cores adaptive=false " +
        s"autoBroadcastJoinThreshold=-1 driver.maxHeap=${Runtime.getRuntime.maxMemory >> 20}MB"
  }

  def session(s: Settings): SparkSession =
    SparkSession.builder
      .master(s.master)
      .appName("remp-perfbench")
      .config("spark.sql.shuffle.partitions", s.cores.toLong)
      // Adaptive execution re-plans every shuffle stage; on these inputs it
      // costs more than the work itself and made one prepare take minutes.
      .config("spark.sql.adaptive.enabled", value = false)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.ui.enabled", value = false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"${s.workDir}/spark-local")
      .getOrCreate()

  /** Drops every cached table, then caches and materialises the generated
    * KBs again, so each prepare starts from the same state.
    */
  def refresh(spark: SparkSession, pair: KBPair): Unit = {
    spark.catalog.clearCache()
    materialise(pair)
  }

  private def materialise(pair: KBPair): Long = {
    val kbs = Seq(pair.kb1.cache(), pair.kb2.cache())
    kbs.map(kb => kb.entities.count() + kb.attrs.count() + kb.rels.count()).sum +
      pair.gold.cache().count()
  }

  /** Operations attempted and the reasons they failed. */
  final class Ledger {
    private var attemptedOps = 0L
    private var failedOps = 0L
    val failures: ArrayBuffer[String] = ArrayBuffer.empty
    def attempted: Long = attemptedOps
    def failed: Long = failedOps
    def record(what: String, problems: Seq[String]): Unit = {
      attemptedOps += 1
      if (problems.nonEmpty) {
        failedOps += 1
        failures ++= problems.map(p => s"$what: $p")
      }
    }
    def attempt[A](what: String)(body: => A)(check: A => Seq[String]): Option[A] =
      try {
        val a = body
        record(what, check(a))
        Some(a)
      } catch {
        case e: Exception =>
          record(what, Seq(s"${e.getClass.getSimpleName}: ${e.getMessage}"))
          None
      }
  }

  /** Runs batches of sessions; the first batch's outcomes are the
    * reference that every later run of the same session must repeat. Each
    * session runs on the next core in turn (see `Cores`).
    */
  final class Crowd(o: Options, ledger: Ledger, cores: Cores) {
    private val WarmUpSeconds = 4
    private val reference = collection.mutable.Map.empty[(Int, Int), (Int, Int, Set[Remp.Pair])]
    val referenceSessions: ArrayBuffer[Session] = ArrayBuffer.empty

    /** Runs the batch's sessions in order; none starts after `deadlineNs`. */
    def batch(p: Remp.Prepared, deadlineNs: Long = Long.MaxValue): Seq[Session] = {
      val plan = (0 until math.max(o.workload.mu10, o.workload.mu1)).flatMap { i =>
        (if (i < o.workload.mu10) Seq((10, i)) else Nil) ++ (if (i < o.workload.mu1) Seq((1, i)) else Nil)
      }
      try plan.iterator.takeWhile(_ => System.nanoTime() < deadlineNs).flatMap { case (mu, i) =>
        cores.advance()
        ledger.attempt(s"session μ=$mu #$i")(Sessions.run(p, o.seed, mu, i)) { s =>
          val repeat = reference.get((mu, i)) match {
            case None =>
              reference((mu, i)) = s.outcome
              referenceSessions += s
              Nil
            case Some(ref) => if (ref == s.outcome) Nil else Seq("outcome differs from its first run")
          }
          Checks.session(p, s) ++ repeat
        }
      }.toSeq
      finally cores.release()
    }

    /** Untimed batches that record the reference outcomes and let the JIT
      * settle: at least two, and more until `WarmUpSeconds` have passed.
        * With one batch, per-run medians still moved by a fifth; with two,
      * `prepare-dense` (whose batches are short) still compiled code for 1–4 s
      * of CPU time inside the measuring window.
      */
    def warmUp(p: Remp.Prepared): Unit = {
      val deadline = System.nanoTime() + WarmUpSeconds * 1000000000L
      batch(p)
      do batch(p) while (System.nanoTime() < deadline)
    }

    /** Timed batches until `seconds` have passed. */
    def timed(p: Remp.Prepared, seconds: Int): ArrayBuffer[Session] = {
      val sessions = ArrayBuffer.empty[Session]
      val deadline = System.nanoTime() + seconds * 1000000000L
      do sessions ++= batch(p, deadline)
      while (System.nanoTime() < deadline && ledger.failed == 0)
      sessions
    }

    /** Round latencies (ms): the μ=1 rounds, or each session's one round
      * on a workload without μ=1 sessions.
      */
    def roundsMs(sessions: Seq[Session]): Seq[Double] =
      if (o.workload.mu1 > 0) sessions.filter(_.mu == 1).flatMap(_.roundsMs)
      else sessions.map(_.firstRoundMs)
  }

  def main(args: Array[String]): Unit = {
    val o = parse(args)
    val settings = Settings(Runtime.getRuntime.availableProcessors,
      sys.props.getOrElse("perfbench.workDir", ".bench_build"))
    val spark = session(settings)
    try {
      val cores = new Cores(settings.cores)
      val (ledger, metrics) = if (o.trace) Traced.run(spark, settings, cores, o) else untraced(spark, cores, o)
      println(s"# workload=${o.workload.name} profile=${o.workload.profile} scale=${o.workload.scale} " +
        s"seed=${o.seed} seconds=${o.seconds} trace=${if (o.trace) 1 else 0}")
      println(s"# settings ${settings.describe} sessions.rotateCores=${cores.rotating}")
      println(s"# failed_ratio=${ledger.failed.toDouble / math.max(1L, ledger.attempted)} " +
        s"(${ledger.failed} of ${ledger.attempted} operations)")
      ledger.failures.take(20).foreach(f => println(s"# FAILED $f"))
      println(Json.result(ledger.failed == 0, ledger.attempted, ledger.failed, metrics))
    } finally spark.stop()
  }

  /** Heap in use (MB) after the caches are dropped and a full GC. */
  def heapAfterGcMb(spark: SparkSession): Double = {
    spark.catalog.clearCache()
    System.gc()
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  def generate(spark: SparkSession, o: Options): KBPair = {
    val pair = KBPairGen.generate(spark, KBPairGen.profile(o.workload.profile, o.workload.scale, o.workload.kbSeed))
    materialise(pair)
    pair
  }

  private def untraced(spark: SparkSession, cores: Cores, o: Options): (Ledger, Seq[(String, Double, String)]) = {
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val ledger = new Ledger
    val crowd = new Crowd(o, ledger, cores)
    val pair = generate(spark, o)
    val cfg = Remp.Config()
    def timedPrepare(): (Remp.Prepared, Double) = {
      refresh(spark, pair)
      val t = System.nanoTime()
      val p = Remp.prepare(spark, pair, cfg)
      val s = (System.nanoTime() - t) / 1e9
      ledger.record("prepare", Checks.prepared(p))
      (p, s)
    }
    // Crowd workloads prepare during set-up; prepare workloads time the
    // prepare as their first measured operation. Either way untimed warm-up
    // batches follow, and timed sessions then fill the measuring window.
    val inSetup = if (o.workload.prepareInSetup) Some(timedPrepare()) else None
    inSetup.foreach { case (p, _) => crowd.warmUp(p) }
    val setupEndMs = System.currentTimeMillis()
    val (prepared, prepareS) = inSetup.getOrElse {
      val ps = timedPrepare()
      crowd.warmUp(ps._1)
      ps
    }

    val sessions = crowd.timed(prepared, o.seconds)
    val resolveMs = sessions.filter(_.mu == 10).map(_.wallMs).toSeq
    val roundMs = crowd.roundsMs(sessions.toSeq)
    val quality = crowd.referenceSessions.filter(_.mu == 10).map(_.result).toSeq
    println(s"# samples: resolve=${resolveMs.size} " +
      s"(tail p${Stats.tailPercentile(resolveMs.size).getOrElse("-")}) rounds=${roundMs.size} " +
      s"(tail p${Stats.tailPercentile(roundMs.size).getOrElse("-")})")
    val metrics = Seq(
      ("setup_s", (setupEndMs - jvmStartMs) / 1000.0, "s"),
      ("prepare_s", prepareS, "s"),
      ("resolve_ms_p50", Stats.quantile(resolveMs, 0.5), "ms"),
      ("resolve_ms_p90", Stats.quantile(resolveMs, 0.9), "ms"),
      ("round_ms_p50", Stats.quantile(roundMs, 0.5), "ms"),
      ("f1", Stats.mean(quality.map(_.prf.f1)), "ratio"),
      ("questions", Stats.mean(quality.map(_.questions.toDouble)), "count"),
      ("loops", Stats.mean(quality.map(_.loops.toDouble)), "count"))
    // The timed sessions hold their results; drop them so the heap reading
    // is the program's state, whatever number of sessions fit the window.
    sessions.clear()
    crowd.referenceSessions.clear()
    (ledger, metrics :+ (("heap_mb", heapAfterGcMb(spark), "MB")))
  }
}
