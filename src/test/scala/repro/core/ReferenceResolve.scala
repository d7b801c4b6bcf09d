package repro.core

import repro.core.Remp.{Config, Pair, Prepared, Result, Selection}
import repro.core.truth.{IsolatedClassifier, ReferenceForest, WorkerPool}

import scala.collection.mutable

/** Reference for `Remp.resolve`: the crowd loop on `Prepared`'s Map-based
  * inferred lists and priors, with sets of pairs for its state and the
  * selection rules written over them. It pins the same orders as `resolve`:
  * greedy ties go to the smaller pair, and the classifier's rows go in pair
  * order. Its classifier is `ReferenceForest`, the per-node-sort forest,
  * fitted on the training rows one by one and asked about each isolated
  * pair in turn. The tests require `resolve` to return an equal `Result`.
  */
object ReferenceResolve {

  def resolve(prepared: Prepared, pool: WorkerPool, cfg: Config): Result = {
    val priors = mutable.Map(prepared.priors.toSeq: _*)
    val unresolved = mutable.Set(prepared.connected.toSeq: _*)
    val labelledM = mutable.Set.empty[Pair]
    val inferredM = mutable.Set.empty[Pair]
    val labelledN = mutable.Set.empty[Pair]
    var loops = 0
    var questions = 0
    var hard = 0
    var capped = false
    val inferredSeqs: Map[Pair, Seq[Pair]] =
      prepared.inferred.view.mapValues(_.map(_._1)).toMap

    var continue = true
    while (continue) {
      val askable = unresolved.filter { q =>
        inferredSeqs(q).exists(p => p != q && unresolved.contains(p))
      }.toSet
      if (askable.isEmpty) continue = false
      else if (loops == cfg.maxLoops) { capped = true; continue = false }
      else {
        val snapshot = priors.toMap
        val selected = cfg.selection match {
          case Selection.MaxInf => selectMaxInf(inferredSeqs, askable, unresolved.toSet, cfg.mu)
          case Selection.MaxPr  => selectMaxPr(snapshot, askable, cfg.mu)
          case Selection.Greedy => selectGreedy(inferredSeqs, snapshot, askable, unresolved.toSet, cfg.mu)
        }
        if (selected.isEmpty) continue = false
        else {
          loops += 1
          questions += selected.size
          for (q <- selected) {
            val truth = prepared.gold.contains(q)
            val (labels, quals) = pool.labelFor(q, truth)
            val post = WorkerPool.posterior(priors(q), labels, quals)
            WorkerPool.verdict(post) match {
              case WorkerPool.IsMatch =>
                labelledM += q
                unresolved -= q
                for ((p, _) <- prepared.inferred(q) if p != q) {
                  if (unresolved.remove(p)) inferredM += p
                }
              case WorkerPool.IsNonMatch =>
                labelledN += q
                unresolved -= q
              case WorkerPool.Unresolved(p) =>
                priors(q) = p
                hard += 1
            }
          }
        }
      }
    }

    def feat(p: Pair): Array[Double] = prepared.vecs(p) :+ prepared.priors(p)
    val positives = (labelledM ++ inferredM).toSeq.map(p => (p, feat(p), true))
    val negatives = (labelledN ++ unresolved).toSeq.map(p => (p, feat(p), false))
    val training = (positives ++ negatives).sortBy(_._1)
    val fitted = prepared.isolated.nonEmpty && positives.nonEmpty && negatives.nonEmpty
    val classifierM =
      if (!fitted) Set.empty[Pair]
      else {
        val forest = new ReferenceForest(seed = IsolatedClassifier.Seed)
          .fit(training.map(_._2).toArray, training.map(_._3).toArray)
        prepared.isolated.filter(p => forest.predict(feat(p)))
      }
    val groups =
      if (!fitted) 0
      else training.map { case (_, x, y) => (x.map(java.lang.Double.doubleToRawLongBits).toSeq, y) }.distinct.size

    val matches = labelledM.toSet ++ inferredM.toSet ++ classifierM
    Result(matches, questions, loops,
      Metrics.prfSets(matches, prepared.gold),
      labelledM.toSet, inferredM.toSet, classifierM, capped, hard,
      positives.size, negatives.size, groups)
  }

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

  /** The queue's maximum is the largest gain, and among equal gains the
    * smallest pair.
    */
  private val ByGainThenPair: Ordering[(Double, Pair)] =
    Ordering.Tuple2(Ordering.Double.TotalOrdering, Ordering[Pair].reverse)

  /** Algorithm 3, lazy greedy, on Map-based lists. */
  def selectGreedy(
      inferred: Map[Pair, Seq[Pair]],
      priors: Map[Pair, Double],
      candidates: Set[Pair],
      unresolved: Set[Pair],
      mu: Int): Seq[Pair] = {
    val b = mutable.Map.empty[Pair, Double]
    val selected = mutable.ArrayBuffer.empty[Pair]
    val pq = mutable.PriorityQueue.empty[(Double, Pair)](ByGainThenPair)
    for (q <- candidates)
      pq.enqueue((gain(q, inferred, priors, unresolved, b), q))

    while (selected.size < mu && pq.nonEmpty) {
      val (staleGain, q) = pq.dequeue()
      if (staleGain <= 0) { pq.clear() }
      else {
        val fresh = gain(q, inferred, priors, unresolved, b)
        if (pq.isEmpty || ByGainThenPair.gteq((fresh, q), pq.head)) {
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

  def selectMaxPr(
      priors: Map[Pair, Double],
      candidates: Set[Pair],
      mu: Int): Seq[Pair] =
    candidates.toSeq
      .map(q => (q, priors(q)))
      .sortBy { case ((i1, i2), p) => (-p, i1, i2) }
      .take(mu).map(_._1)
}
