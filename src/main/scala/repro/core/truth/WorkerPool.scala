package repro.core.truth

import scala.util.Random

/** Simulated crowd workers + error-tolerant truth inference (§VII-A, Eq. 17).
  *
  * Each worker w has quality λ_w — the probability of labelling a question
  * correctly (the "worker probability model" of [Zheng et al., VLDB'17]).
  * A question is assigned to `perQuestion` workers; the posterior match
  * probability combines the prior with the label likelihood ratio (Eq. 17).
  * Posteriors ≥ `MatchThreshold` are matches, ≤ `NonMatchThreshold` are
  * non-matches, anything between stays unresolved with its prior replaced by
  * the posterior (the paper's treatment of "hard" questions).
  *
  * This substitutes the paper's MTurk deployment — the paper itself runs the
  * identical simulation for its robustness study (Fig. 3). On top of the
  * fixed per-worker quality, `difficulty` models the real-worker effect the
  * paper observes ("these questions are too hard"): a worker's *effective*
  * accuracy on a hard question shrinks towards a coin flip,
  * λ_eff = 0.5 + (λ − 0.5)·(1 − difficulty), while truth inference still
  * uses the *nominal* λ from the platform's qualification test — the
  * overconfidence that error-tolerant inference has to absorb.
  */
final class WorkerPool(
    val qualities: IndexedSeq[Double],
    seed: Long,
    val perQuestion: Int = 5,
    difficulty: ((Long, Long)) => Double = _ => 0.0) {

  private val rnd = new Random(seed)

  /** One crowd round for a concrete question: workers label `truth`, and
    * labels flip according to the effective quality, while the reported
    * qualities stay nominal. Returns (labels, workerQualities).
    */
  def labelFor(pair: (Long, Long), truth: Boolean): (IndexedSeq[Boolean], IndexedSeq[Double]) = {
    val d = math.min(1.0, math.max(0.0, difficulty(pair)))
    val ws = IndexedSeq.fill(perQuestion)(qualities(rnd.nextInt(qualities.size)))
    val labels = ws.map { q =>
      val eff = 0.5 + (q - 0.5) * (1.0 - d)
      if (rnd.nextDouble() < eff) truth else !truth
    }
    (labels, ws)
  }

  /** Same pool with a difficulty model attached (fresh RNG from `seed`). */
  def withDifficulty(f: ((Long, Long)) => Double, seed: Long): WorkerPool =
    new WorkerPool(qualities, seed, perQuestion, f)
}

object WorkerPool {

  /** Workers in a fixed-error-rate pool, all of one quality. */
  val PoolSize = 50

  /** Fixed-error-rate pool (the Fig. 3 / Table III setting). */
  def fixedError(errorRate: Double, seed: Long = 11L): WorkerPool =
    new WorkerPool(IndexedSeq.fill(PoolSize)(1.0 - errorRate), seed)

  /** A "perfect oracle" pool — used when ground truth serves as labels
    * (Tables VI and VII).
    */
  def oracle(seed: Long = 11L): WorkerPool =
    new WorkerPool(IndexedSeq.fill(1)(1.0 - 1e-12), seed, perQuestion = 1)

  sealed trait Verdict
  case object IsMatch extends Verdict
  case object IsNonMatch extends Verdict
  final case class Unresolved(posterior: Double) extends Verdict

  /** Eq. 17: posterior of m_q given labels and worker qualities. */
  def posterior(prior: Double, labels: Seq[Boolean], qualities: Seq[Double]): Double = {
    val p = math.min(1 - 1e-9, math.max(1e-9, prior))
    // ∏_{w∈W_T} (1-λ)/λ · ∏_{w∈W_F} λ/(1-λ), in log space for stability.
    var logRatio = 0.0
    for ((l, q) <- labels.zip(qualities)) {
      val lam = math.min(1 - 1e-9, math.max(1e-9, q))
      logRatio += (if (l) math.log1p(-lam) - math.log(lam) else math.log(lam) - math.log1p(-lam))
    }
    p / (p + (1 - p) * math.exp(logRatio))
  }

  /** The paper's thresholds on the posterior (§VII-A). */
  val MatchThreshold = 0.8
  val NonMatchThreshold = 0.2

  def verdict(post: Double): Verdict =
    if (post >= MatchThreshold) IsMatch
    else if (post <= NonMatchThreshold) IsNonMatch
    else Unresolved(post)
}
