package repro.core.truth

/** Inference for isolated entity pairs (§VII-B).
  *
  * Match propagation cannot reach vertices with no incident edge, and
  * polling them one by one wastes the budget. The paper reuses the
  * similarity vectors of retained pairs plus the crowd labels to train a
  * random forest: resolved matches are positives; since the propagation
  * yields almost exclusively match labels, *unresolved* retained pairs are
  * treated as negatives to balance the classes. Here the training set is
  * every connected pair of the session, and one forest classifies every
  * isolated pair.
  *
  * The paper additionally trains each isolated pair only on the pairs whose
  * attribute-match sets overlap its own (Jaccard ≥ ψ = 0.9). That filter is
  * not applied. The similarity vectors are aligned on the global
  * attribute-match list M_at, but a 0 component means either "one side has
  * no value" or "the values differ", so a pair's attribute-match set cannot
  * be read back from its vector.
  *
  * Features: the similarity vector extended with the label-similarity prior.
  */
object IsolatedClassifier {

  /** The forest's seed. */
  val Seed = 13L

  /** Fits the forest on rows `xs` labelled `ys` (true: match) and classifies
    * each of `vectors`. Returns the verdicts and the number of distinct
    * (row, label) groups the forest trained on. Without a vector to classify,
    * or without both a positive and a negative row (nothing learnable),
    * nothing is fitted: every verdict is false, and there are 0 groups.
    */
  def classify(
      xs: Array[Array[Double]],
      ys: Array[Boolean],
      vectors: Array[Array[Double]]): (Array[Boolean], Int) = {
    if (vectors.isEmpty || !ys.contains(true) || !ys.contains(false))
      return (new Array[Boolean](vectors.length), 0)
    val forest = new RandomForest(seed = Seed).fit(xs, ys)
    (vectors.map(forest.predict), forest.groups)
  }
}
