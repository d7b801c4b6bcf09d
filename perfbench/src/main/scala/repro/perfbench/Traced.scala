package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core.Remp
import repro.core.select.QuestionSelection

/** The traced run: the same inputs as the untraced run, with `Remp.prepare`
  * replayed stage by stage under spans, a drift guard against an untraced
  * prepare, and the crowd-side layers timed from benchmark code.
  */
object Traced {
  import Main._

  def run(spark: SparkSession, settings: Settings, cores: Cores, o: Options): (Ledger, Seq[(String, Double, String)]) = {
    val counters = new SparkCounters
    spark.sparkContext.addSparkListener(counters)
    val tracer = new Tracer(spark, counters)
    val ledger = new Ledger
    val crowd = new Crowd(o, ledger, cores)
    val cfg = Remp.Config()

    val pair = tracer.span("synth.KBPairGen")(generate(spark, o))(_ => 0L)

    // Warm-up, as in the untraced run, then an untraced prepare on a warm
    // JVM: its time is the baseline of the tracing overhead and its outputs
    // are what the replay must reproduce.
    val warm = Remp.prepare(spark, pair, cfg)
    ledger.record("prepare (warm-up)", Checks.prepared(warm))
    crowd.warmUp(warm)
    refresh(spark, pair)
    val t = System.nanoTime()
    val plain = Remp.prepare(spark, pair, cfg)
    val prepareS = (System.nanoTime() - t) / 1e9
    val expected = PrepareDigest.of(plain)

    refresh(spark, pair)
    val replayed = Replay.prepare(spark, pair, cfg, tracer)
    val drift = expected.drift(PrepareDigest.of(replayed))
    ledger.record("replay", Checks.prepared(replayed) ++ drift.map(d => s"replay drifted on $d"))

    val selection = Seq(1, 10).map(mu => mu -> firstRoundMs(replayed, mu)).toMap
    val sessions = crowd.timed(replayed, o.seconds).toSeq
    val mu10 = sessions.filter(_.mu == 10)

    val spans = tracer.spans.map(s => s.name -> s).toMap
    val layerMetrics = Replay.Layers.flatMap { name =>
      val s = spans(name)
      Seq(
        (s"$name.wall_s", s.wallS, "s"),
        (s"$name.rows_out", s.rowsOut.toDouble, "count"),
        (s"$name.spark_jobs", s.engine.jobs.toDouble, "count"),
        (s"$name.spark_stages", s.engine.stages.toDouble, "count"),
        (s"$name.spark_tasks", s.engine.tasks.toDouble, "count"),
        (s"$name.task_busy_ratio", Stats.busyRatio(s.engine.runMs, s.wallS, settings.cores), "ratio"),
        (s"$name.shuffle_mb", s.engine.shuffleBytes / (1024.0 * 1024.0), "MB"),
        (s"$name.gc_s", s.engine.gcMs / 1000.0, "s"))
    }
    val candidates = spans("graph.CandidateGen").rowsOut.toDouble
    val sources = math.max(1, replayed.inferred.size)
    val dispatches = sessions.map(_.dispatches).sum.toDouble
    val root = spans(Replay.Root)
    println(f"# replay: untraced prepare ${prepareS}%.3f s, replay ${root.wallS}%.3f s " +
      f"(self ${Stats.selfTimeS(root.startNs, root.endNs, tracer.spans.filter(_.parent.contains(Replay.Root)).map(c => (c.startNs, c.endNs)).toSeq)}%.3f s outside layer spans), " +
      s"drift=${if (drift.isEmpty) "none" else drift.mkString(",")}")

    (ledger, layerMetrics ++ Seq(
      ("graph.PartialOrderPruning.retained_ratio",
        spans("graph.PartialOrderPruning").rowsOut / math.max(1.0, candidates), "ratio"),
      ("prop.DistantPropagation.rows_per_source",
        spans("prop.DistantPropagation").rowsOut.toDouble / sources, "count"),
      ("select.QuestionSelection.first_round_ms_mu1", selection(1), "ms"),
      ("select.QuestionSelection.first_round_ms_mu10", selection(10), "ms"),
      ("round_ms_p99", Stats.quantile(crowd.roundsMs(sessions), 0.99), "ms"),
      ("truth.WorkerPool.dispatches", dispatches / math.max(1, sessions.size), "count"),
      ("truth.WorkerPool.reask_ratio", sessions.map(_.reasks).sum / math.max(1.0, dispatches), "ratio"),
      ("truth.IsolatedClassifier.tail_ms", Stats.median(mu10.map(_.tailMs)), "ms"),
      ("truth.IsolatedClassifier.isolated_pairs", replayed.isolated.size.toDouble, "count"),
      ("truth.IsolatedClassifier.matches",
        Stats.mean(mu10.map(_.result.classifierMatches.size.toDouble)), "count"),
      ("synth.KBPairGen.wall_s", spans("synth.KBPairGen").wallS, "s"),
      ("trace_overhead_s", root.wallS - prepareS, "s")))
  }

  /** Median time (ms) of the first round's `selectGreedy` call, on the state
    * `Remp.resolve` starts from: every connected pair unresolved.
    */
  def firstRoundMs(p: Remp.Prepared, mu: Int, repeats: Int = 7): Double = {
    val inferred = p.inferred.view.mapValues(_.map(_._1)).toMap
    val unresolved = p.connected
    val askable = unresolved.filter(q => inferred.getOrElse(q, Nil).exists(x => x != q && unresolved(x)))
    Stats.median((1 to repeats).map { _ =>
      val t = System.nanoTime()
      QuestionSelection.selectGreedy(inferred, p.priors, askable, unresolved, mu)
      (System.nanoTime() - t) / 1e6
    })
  }
}
