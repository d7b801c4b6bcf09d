package repro.core.select

import scala.collection.mutable

/** Multiple questions selection (§VI, Eq. 15–16, Algorithm 3).
  *
  * benefit(Q) = Σ_p Pr[p ∈ inferred(H) | Q] with
  * Pr[p ∈ inferred(H) | Q] = 1 − ∏_{q∈Q : p∈inferred(q)} (1 − Pr[m_q]).
  * The benefit is increasing and submodular (Theorem 2), so the lazy greedy
  * algorithm gives the (1 − 1/e) guarantee. Every candidate must have a
  * prior and an inferred set; one without is rejected
  * (`NoSuchElementException`). Selection is inherently
  * sequential and operates on the (small) collected inferred sets, so it runs
  * on the driver, as does computing inferred(·) itself (Algorithm 2, see
  * DistantPropagation).
  */
object QuestionSelection {

  type Pair = (Long, Long)

  /** Marginal gain of adding q given current per-pair probabilities b. */
  private def gain(
      q: Pair,
      inferred: Map[Pair, Seq[Pair]],
      priors: Map[Pair, Double],
      unresolved: Set[Pair],
      b: mutable.Map[Pair, Double]): Double = {
    val pq = priors(q)
    inferred(q).iterator
      .filter(unresolved.contains)
      .map(p => (1.0 - b.getOrElse(p, 0.0)) * pq)
      .sum
  }

  /** Algorithm 3: lazy greedy selection of up to `mu` questions. */
  def selectGreedy(
      inferred: Map[Pair, Seq[Pair]],
      priors: Map[Pair, Double],
      candidates: Set[Pair],
      unresolved: Set[Pair],
      mu: Int): Seq[Pair] = {
    val b = mutable.Map.empty[Pair, Double] // b_p(Q)
    val selected = mutable.ArrayBuffer.empty[Pair]
    // priority queue over (gain, staleness marker); lazy re-evaluation
    val pq = mutable.PriorityQueue.empty[(Double, Pair)](Ordering.by(_._1))
    for (q <- candidates)
      pq.enqueue((gain(q, inferred, priors, unresolved, b), q))

    while (selected.size < mu && pq.nonEmpty) {
      val (staleGain, q) = pq.dequeue()
      if (staleGain <= 0) { pq.clear() } // nothing useful remains
      else {
        val fresh = gain(q, inferred, priors, unresolved, b)
        val nextBest = if (pq.isEmpty) Double.NegativeInfinity else pq.head._1
        if (fresh >= nextBest) {
          if (fresh > 0) {
            selected += q
            val pqPrior = priors(q)
            for (p <- inferred(q) if unresolved.contains(p)) {
              val old = b.getOrElse(p, 0.0)
              b(p) = old + (1.0 - old) * pqPrior
            }
          }
        } else {
          pq.enqueue((fresh, q))
        }
      }
    }
    selected.toSeq
  }

  /** MaxInf baseline (Fig. 5): maximal inference power |inferred(q)|. */
  def selectMaxInf(
      inferred: Map[Pair, Seq[Pair]],
      candidates: Set[Pair],
      unresolved: Set[Pair],
      mu: Int): Seq[Pair] =
    candidates.toSeq
      .map(q => (q, inferred(q).count(unresolved.contains)))
      .filter(_._2 > 0)
      .sortBy { case ((i1, i2), n) => (-n, i1, i2) }
      .take(mu).map(_._1)

  /** MaxPr baseline (Fig. 5): maximal prior match probability. */
  def selectMaxPr(
      priors: Map[Pair, Double],
      candidates: Set[Pair],
      mu: Int): Seq[Pair] =
    candidates.toSeq
      .map(q => (q, priors(q)))
      .sortBy { case ((i1, i2), p) => (-p, i1, i2) }
      .take(mu).map(_._1)
}
