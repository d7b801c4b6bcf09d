package repro.perfbench

import repro.core.Remp
import repro.core.truth.WorkerPool

import scala.collection.mutable.ArrayBuffer

/** One crowd session (`Remp.resolve`) and what the benchmark saw of it:
  * `firstRoundMs` runs from the call to the first dispatch, `roundsMs` are
  * the gaps between dispatches (whole rounds when μ=1), and `tailMs` runs
  * from the last dispatch to the return.
  */
final case class Session(
    mu: Int,
    index: Int,
    wallMs: Double,
    firstRoundMs: Double,
    roundsMs: Seq[Double],
    tailMs: Double,
    dispatches: Int,
    reasks: Int,
    result: Remp.Result) {
  /** What must repeat exactly when the same session runs again. */
  def outcome: (Int, Int, Set[Remp.Pair]) = (result.questions, result.loops, result.matches)
}

object Sessions {
  val ErrorRate = 0.05

  /** Worker seed of session `index` with batch size `mu`, derived from the
    * run's seed so that every session has its own crowd.
    */
  def workerSeed(runSeed: Long, mu: Int, index: Int): Long =
    runSeed * 1000003L + mu * 1009L + index

  /** Runs one session. The pool's difficulty callback timestamps each
    * question as it is dispatched and leaves the labels unaffected (0.0).
    */
  def run(prepared: Remp.Prepared, runSeed: Long, mu: Int, index: Int): Session = {
    val seed = workerSeed(runSeed, mu, index)
    val stamps = ArrayBuffer.empty[Long]
    val asked = collection.mutable.Set.empty[Remp.Pair]
    var reasks = 0
    val pool = WorkerPool.fixedError(ErrorRate, seed = seed).withDifficulty({ q =>
      stamps += System.nanoTime()
      if (!asked.add(q)) reasks += 1
      0.0
    }, seed)
    val start = System.nanoTime()
    val result = Remp.resolve(prepared, pool, Remp.Config(mu = mu))
    val end = System.nanoTime()
    val firstDispatch = stamps.headOption.getOrElse(end)
    val lastDispatch = stamps.lastOption.getOrElse(start)
    Session(mu, index, (end - start) / 1e6, (firstDispatch - start) / 1e6, Stats.roundGapsMs(stamps.toSeq),
      (end - lastDispatch) / 1e6, stamps.size, reasks, result)
  }
}
