package repro.core.select

import scala.collection.mutable

/** Multiple questions selection (§VI, Eq. 15–16, Algorithm 3).
  *
  * benefit(Q) = Σ_p Pr[p ∈ inferred(H) | Q] with
  * Pr[p ∈ inferred(H) | Q] = 1 − ∏_{q∈Q : p∈inferred(q)} (1 − Pr[m_q]).
  * The benefit is increasing and submodular (Theorem 2), so the lazy greedy
  * algorithm gives the (1 − 1/e) guarantee.
  *
  * Selection runs on the driver over the `InferredGraph` that `Remp.prepare`
  * builds once: pairs numbered 0..n−1 in pair order, inferred(·) as CSR
  * arrays, and one state byte per pair (unresolved or not). The crowd loop
  * rebuilds nothing per round; each call allocates only its own O(n)
  * arrays. Ties go to the smaller pair: the greedy order is (gain desc,
  * pair asc), MaxInf's (|unresolved inferred| desc, pair asc) and MaxPr's
  * (prior desc, pair asc). Gains are summed in inferred-list order, so they
  * are the same bits as a sum over the Map-based lists (`ReferenceResolve`
  * in the tests checks the whole crowd loop against that form).
  */
object QuestionSelection {

  type Pair = (Long, Long)

  import InferredGraph.Unresolved

  /** Marginal gain of adding q given the current b_p(Q): the sum, over q's
    * unresolved targets in list order, of (1 − b_p)·Pr[m_q].
    */
  private def gain(g: InferredGraph, prior: Array[Double], state: Array[Byte], b: Array[Double], q: Int): Double = {
    val pq = prior(q)
    var sum = 0.0
    var i = g.offsets(q)
    while (i < g.offsets(q + 1)) {
      val p = g.targets(i)
      if (state(p) == Unresolved) sum += (1.0 - b(p)) * pq
      i += 1
    }
    sum
  }

  /** Algorithm 3: lazy greedy selection of up to `mu` of the `candidates`,
    * in selection order. A dequeued candidate is selected when its fresh
    * gain, with its index, is at least the queue head's (stale gain, index)
    * in the (gain desc, index asc) order. Gains only fall as Q grows, so
    * this equals plain greedy with that tie-break.
    */
  def selectGreedy(
      g: InferredGraph,
      prior: Array[Double],
      state: Array[Byte],
      candidates: Array[Int],
      mu: Int): Array[Int] = {
    val b = new Array[Double](g.size) // b_p(Q)
    val gains = new Array[Double](g.size) // each queued candidate's gain when queued
    val byGainThenIndex: Ordering[Int] = (x, y) => {
      val c = java.lang.Double.compare(gains(x), gains(y))
      if (c != 0) c else Integer.compare(y, x)
    }
    val queue = mutable.PriorityQueue.empty[Int](byGainThenIndex)
    for (q <- candidates) {
      gains(q) = gain(g, prior, state, b, q)
      queue += q
    }
    val selected = Array.newBuilder[Int]
    var n = 0
    while (n < mu && queue.nonEmpty) {
      val q = queue.dequeue()
      if (gains(q) <= 0) queue.clear() // nothing useful remains
      else {
        gains(q) = gain(g, prior, state, b, q)
        if (queue.isEmpty || byGainThenIndex.gteq(q, queue.head)) {
          if (gains(q) > 0) {
            selected += q
            n += 1
            val pq = prior(q)
            for (i <- g.offsets(q) until g.offsets(q + 1)) {
              val p = g.targets(i)
              if (state(p) == Unresolved) b(p) += (1.0 - b(p)) * pq
            }
          }
        } else queue += q
      }
    }
    selected.result()
  }

  /** `selectGreedy` on Map-based inferred lists and priors: numbers the
    * candidates and their targets in pair order and selects on that index.
    * Every candidate must have a prior and an inferred list; one without is
    * rejected (`NoSuchElementException`).
    */
  def selectGreedy(
      inferred: Map[Pair, Seq[Pair]],
      priors: Map[Pair, Double],
      candidates: Set[Pair],
      unresolved: Set[Pair],
      mu: Int): Seq[Pair] = {
    // Only the candidates' lists and priors are read; NaN marks the rest.
    val g = InferredGraph(candidates ++ candidates.flatMap(inferred),
      p => if (candidates(p)) inferred(p) else Nil,
      p => if (candidates(p)) priors(p) else Double.NaN)
    val state = g.pairs.map(p => if (unresolved(p)) Unresolved else InferredGraph.LabelledNonMatch)
    selectGreedy(g, g.priors, state, candidates.toArray.map(g.index), mu).toSeq.map(g.pairs)
  }

  /** MaxInf baseline (Fig. 5): maximal inference power, the number of
    * unresolved pairs in inferred(q).
    */
  def selectMaxInf(g: InferredGraph, state: Array[Byte], candidates: Array[Int], mu: Int): Array[Int] =
    candidates
      .map(q => (q, (g.offsets(q) until g.offsets(q + 1)).count(i => state(g.targets(i)) == Unresolved)))
      .filter(_._2 > 0)
      .sortBy { case (q, n) => (-n, q) }
      .take(mu).map(_._1)

  /** MaxPr baseline (Fig. 5): maximal prior match probability. */
  def selectMaxPr(prior: Array[Double], candidates: Array[Int], mu: Int): Array[Int] =
    candidates.sortBy(q => (-prior(q), q)).take(mu)
}
