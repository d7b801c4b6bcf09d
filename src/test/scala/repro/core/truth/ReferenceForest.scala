package repro.core.truth

import scala.util.Random

/** Reference for `RandomForest`: the same forest built the plain way, by
  * sorting the node's sample for every feature tried at every node. The
  * tests require `RandomForest` to predict bit-equal probabilities.
  *
  * From-scratch random forest classifier (§VII-B).
  *
  * The paper trains a scikit-learn random forest with default parameters to
  * resolve isolated entity pairs from their similarity vectors. This is the
  * same algorithm family built locally: CART trees with Gini impurity,
  * bootstrap sampling and √d feature sub-sampling per split, fitted row by
  * row: duplicate rows are not merged.
  */
final class ReferenceForest(
    nTrees: Int = 100,
    maxDepth: Int = 20,
    minSamplesSplit: Int = 2,
    seed: Long = 13L) {
  import ReferenceForest._

  private var trees: IndexedSeq[Node] = IndexedSeq.empty

  private def gini(pos: Int, n: Int): Double = {
    if (n == 0) 0.0
    else {
      val p = pos.toDouble / n
      2 * p * (1 - p)
    }
  }

  private def buildTree(xs: Array[Array[Double]], ys: Array[Boolean],
                        idx: Array[Int], depth: Int, rnd: Random): Node = {
    val n = idx.length
    val pos = idx.count(ys(_))
    if (n < minSamplesSplit || depth >= maxDepth || pos == 0 || pos == n)
      return Leaf(if (n == 0) 0.5 else pos.toDouble / n)

    val d = xs(0).length
    val nFeat = math.max(1, math.sqrt(d.toDouble).round.toInt)
    val shuffled = rnd.shuffle((0 until d).toList)
    var bestGain = 0.0
    var bestFeat = -1
    var bestThr = 0.0
    val parentImp = gini(pos, n)
    // Like sklearn's splitter: examine √d random features, but keep going
    // through the remaining ones until a valid split is found — giving up
    // early leaves impure leaves that wreck accuracy on duplicate-heavy data.
    var fi = 0
    while (fi < shuffled.length && (fi < nFeat || bestFeat < 0)) {
      val f = shuffled(fi)
      val sorted = idx.sortBy(xs(_)(f))
      var leftPos = 0
      var i = 0
      while (i < n - 1) {
        if (ys(sorted(i))) leftPos += 1
        val vL = xs(sorted(i))(f)
        val vR = xs(sorted(i + 1))(f)
        if (vL < vR) {
          val nL = i + 1
          val nR = n - nL
          val imp = (nL * gini(leftPos, nL) + nR * gini(pos - leftPos, nR)) / n
          val g = parentImp - imp
          if (g > bestGain) { bestGain = g; bestFeat = f; bestThr = (vL + vR) / 2 }
        }
        i += 1
      }
      fi += 1
    }
    if (bestFeat < 0) return Leaf(pos.toDouble / n)
    val (l, r) = idx.partition(xs(_)(bestFeat) <= bestThr)
    if (l.isEmpty || r.isEmpty) return Leaf(pos.toDouble / n)
    Split(bestFeat, bestThr,
      buildTree(xs, ys, l, depth + 1, rnd),
      buildTree(xs, ys, r, depth + 1, rnd))
  }

  def fit(xs: Array[Array[Double]], ys: Array[Boolean]): this.type = {
    require(xs.length == ys.length && xs.nonEmpty, "empty training set")
    val rnd = new Random(seed)
    trees = (0 until nTrees).map { _ =>
      val idx = Array.fill(xs.length)(rnd.nextInt(xs.length)) // bootstrap
      buildTree(xs, ys, idx, 0, rnd)
    }
    this
  }

  private def treeProb(node: Node, x: Array[Double]): Double = node match {
    case Leaf(p) => p
    case Split(f, t, l, r) => if (x(f) <= t) treeProb(l, x) else treeProb(r, x)
  }

  /** Mean positive-class probability over the forest. */
  def predictProb(x: Array[Double]): Double = {
    require(trees.nonEmpty, "fit before predict")
    trees.map(treeProb(_, x)).sum / trees.size
  }

  def predict(x: Array[Double]): Boolean = predictProb(x) >= 0.5
}

object ReferenceForest {
  private sealed trait Node
  private final case class Leaf(probPositive: Double) extends Node
  private final case class Split(feature: Int, threshold: Double, left: Node, right: Node) extends Node
}
