package repro.core.truth

import scala.collection.mutable
import scala.util.Random

/** From-scratch random forest classifier (§VII-B).
  *
  * The paper trains a scikit-learn random forest with default parameters to
  * resolve isolated entity pairs from their similarity vectors. This is the
  * same algorithm family built locally: CART trees with Gini impurity,
  * bootstrap sampling and √d feature sub-sampling per split. The training
  * sets are small (isolated-pair neighbourhoods), so driver-side training is
  * exactly what the paper does too.
  *
  * Training uses the CART presort (Breiman et al., 1984): each feature's rows
  * are sorted once per `fit`, each tree's bootstrap sample is expanded from
  * that order, and a node is a segment of every feature's sorted sample that
  * a split stably partitions for its children. No node sorts. The trees are
  * the ones a per-node sort builds: a split's gain is read only between
  * distinct values, so it depends on the multiset of values at the node, not
  * on the order among ties; and the random draws are made in the same order
  * (the bootstrap, then one feature shuffle per split node, in pre-order).
  * The fitted trees are stored flat for prediction.
  */
final class RandomForest(
    nTrees: Int = 100,
    maxDepth: Int = 20,
    seed: Long = 13L) {

  // Node i is a leaf when feature(i) < 0, and value(i) is then its
  // positive-class probability; otherwise x goes to left(i) when
  // x(feature(i)) <= value(i), else to right(i). roots(t) is tree t's root.
  private var dim = -1
  private var roots = Array.empty[Int]
  private var feature = Array.empty[Int]
  private var value = Array.empty[Double]
  private var left = Array.empty[Int]
  private var right = Array.empty[Int]

  private def gini(pos: Int, n: Int): Double = {
    if (n == 0) 0.0
    else {
      val p = pos.toDouble / n
      2 * p * (1 - p)
    }
  }

  def fit(xs: Array[Array[Double]], ys: Array[Boolean]): this.type = {
    require(xs.length == ys.length && xs.nonEmpty, "empty training set")
    val d = xs(0).length
    require(xs.forall(_.length == d), s"every row must have $d features")
    val n = xs.length
    val cols = Array.tabulate(d)(f => Array.tabulate(n)(xs(_)(f)))
    // Rows in ascending order of each feature, ties in row order, under
    // Ordering.Double's total order (-0.0 before 0.0, NaN last): a node's
    // values then read as sorting them at the node would order them.
    val order = cols.map(col => Array.range(0, n).sortBy(col(_)))
    // The current tree's bootstrap sample, sorted by each feature.
    val sorted = Array.fill(d)(new Array[Int](n))
    val scratch = new Array[Int](n)
    val counts = new Array[Int](n)
    val features = (0 until d).toList
    val nFeat = math.max(1, math.sqrt(d.toDouble).round.toInt)
    val rnd = new Random(seed)
    val fb = mutable.ArrayBuilder.make[Int]
    val vb = mutable.ArrayBuilder.make[Double]
    val lb = mutable.ArrayBuilder.make[Int]
    val rb = mutable.ArrayBuilder.make[Int]

    def node(f: Int, v: Double, l: Int, r: Int): Int = {
      fb += f; vb += v; lb += l; rb += r
      fb.length - 1
    }

    // Builds the node over segment [lo, hi) of every feature's sample, whose
    // positive count is pos; returns its index. Children come before their
    // parent in the arrays, but are built (and draw) left before right.
    // A node of one row is pure, so scikit-learn's default
    // min_samples_split = 2 needs no test of its own.
    def build(lo: Int, hi: Int, pos: Int, depth: Int): Int = {
      val n = hi - lo
      if (depth >= maxDepth || pos == 0 || pos == n)
        return node(-1, pos.toDouble / n, -1, -1)

      val shuffled = rnd.shuffle(features).iterator
      var bestGain = 0.0
      var bestFeat = -1
      var bestThr = 0.0
      val parentImp = gini(pos, n)
      // Like sklearn's splitter: examine √d random features, but keep going
      // through the remaining ones until a valid split is found — giving up
      // early leaves impure leaves that wreck accuracy on duplicate-heavy data.
      var fi = 0
      while (shuffled.hasNext && (fi < nFeat || bestFeat < 0)) {
        val f = shuffled.next()
        val s = sorted(f)
        val col = cols(f)
        var leftPos = 0
        var i = lo
        while (i < hi - 1) {
          if (ys(s(i))) leftPos += 1
          val vL = col(s(i))
          val vR = col(s(i + 1))
          if (vL < vR) {
            val nL = i + 1 - lo
            val nR = n - nL
            val imp = (nL * gini(leftPos, nL) + nR * gini(pos - leftPos, nR)) / n
            val g = parentImp - imp
            if (g > bestGain) { bestGain = g; bestFeat = f; bestThr = (vL + vR) / 2 }
          }
          i += 1
        }
        fi += 1
      }
      if (bestFeat < 0) return node(-1, pos.toDouble / n, -1, -1)

      // The rows going left are a prefix of the split feature's segment.
      val splitCol = cols(bestFeat)
      val thr = bestThr
      val bs = sorted(bestFeat)
      var mid = lo
      var leftPos = 0
      while (mid < hi && splitCol(bs(mid)) <= thr) {
        if (ys(bs(mid))) leftPos += 1
        mid += 1
      }
      if (mid == lo || mid == hi) return node(-1, pos.toDouble / n, -1, -1)
      for (s <- sorted) { // stable partition of each feature's segment
        var l = lo
        var r = 0
        var j = lo
        while (j < hi) {
          val row = s(j)
          if (splitCol(row) <= thr) { s(l) = row; l += 1 }
          else { scratch(r) = row; r += 1 }
          j += 1
        }
        System.arraycopy(scratch, 0, s, l, r)
      }
      val l = build(lo, mid, leftPos, depth + 1)
      val r = build(mid, hi, pos - leftPos, depth + 1)
      node(bestFeat, thr, l, r)
    }

    roots = Array.fill(nTrees) {
      // Bootstrap: the same draws as sampling n row indices, kept as counts.
      java.util.Arrays.fill(counts, 0)
      var i = 0
      while (i < n) { counts(rnd.nextInt(n)) += 1; i += 1 }
      for (f <- 0 until d) { // each row repeated by its count, in order(f)
        val o = order(f)
        val s = sorted(f)
        var k = 0
        var j = 0
        while (j < n) {
          var c = counts(o(j))
          while (c > 0) { s(k) = o(j); k += 1; c -= 1 }
          j += 1
        }
      }
      var pos = 0
      for (row <- 0 until n if ys(row)) pos += counts(row)
      build(0, n, pos, 0)
    }
    dim = d
    feature = fb.result()
    value = vb.result()
    left = lb.result()
    right = rb.result()
    this
  }

  /** Mean positive-class probability over the forest. */
  def predictProb(x: Array[Double]): Double = {
    require(roots.nonEmpty, "fit before predict")
    require(x.length == dim, s"expected $dim features, got ${x.length}")
    var sum = 0.0 // summed in tree order
    var t = 0
    while (t < roots.length) {
      var i = roots(t)
      while (feature(i) >= 0) i = if (x(feature(i)) <= value(i)) left(i) else right(i)
      sum += value(i)
      t += 1
    }
    sum / roots.length
  }

  def predict(x: Array[Double]): Boolean = predictProb(x) >= 0.5
}
