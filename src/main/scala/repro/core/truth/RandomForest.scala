package repro.core.truth

import scala.collection.mutable

/** From-scratch random forest classifier (§VII-B).
  *
  * The paper trains a scikit-learn random forest with default parameters to
  * resolve isolated entity pairs from their similarity vectors. This is the
  * same algorithm family built locally: CART trees with Gini impurity,
  * bootstrap sampling and √d feature sub-sampling per split.
  *
  * The training rows, every connected pair of a session, are nearly all
  * duplicates (1,164 rows in 436 distinct (row, label) pairs on iimb). So
  * `fit` merges identical rows (same raw bits in every feature, same label)
  * into weighted groups, and ranks each feature's distinct raw-bit values
  * (in Ordering.Double's order) into bins. Per tree, the bootstrap's n row
  * draws are summed into group weights; a node is a segment of one array of
  * the groups of weight > 0. A feature's split is read from the node's
  * histogram (Ke et al., "LightGBM", 2017) of group and positive weights.
  *
  * The trees are the ones a per-node sort of the bootstrap rows builds, bit
  * for bit. That sort's scan reads a split's gain only between consecutive
  * values vL < vR, at (vL + vR) / 2, from integer counts of rows and
  * positives on each side. Consecutive non-empty bins are those values in
  * the same order, with the same counts as prefix sums. The draws come in
  * the same order from `java.util.Random`'s generator (`Lcg`): the
  * bootstrap, then one feature shuffle per split node, in pre-order.
  */
final class RandomForest(
    nTrees: Int = 100,
    maxDepth: Int = 20,
    seed: Long = 13L) {
  require(nTrees >= 1, s"nTrees must be at least 1, got $nTrees")
  require(maxDepth >= 0, s"maxDepth must not be negative, got $maxDepth")

  // Node i is a leaf when feature(i) < 0, and value(i) is then its
  // positive-class probability; otherwise x goes to left(i) when
  // x(feature(i)) <= value(i), else to right(i). roots(t) is tree t's root.
  private var dim = -1
  private var roots = Array.empty[Int]
  private var feature = Array.empty[Int]
  private var value = Array.empty[Double]
  private var left = Array.empty[Int]
  private var right = Array.empty[Int]
  private var nGroups = 0

  /** The distinct (row, label) groups the last `fit` trained on. */
  def groups: Int = nGroups

  private def gini(pos: Int, n: Int): Double = { // n > 0: no node or side is empty
    val p = pos.toDouble / n
    2 * p * (1 - p)
  }

  def fit(xs: Array[Array[Double]], ys: Array[Boolean]): this.type = {
    require(xs.length == ys.length && xs.nonEmpty, "empty training set")
    val d = xs(0).length
    require(xs.forall(_.length == d), s"every row must have $d features")
    val n = xs.length
    val (groupOf, firstRows) = RandomForest.distinct(xs.indices.map(r => xs(r) :+ (if (ys(r)) 1.0 else 0.0)))
    val g = firstRows.length
    val label = firstRows.map(ys)
    // binValue(f): feature f's distinct values under Ordering.Double's total
    // order (-0.0 before 0.0, NaN last); bin(f)(grp): group grp's rank there.
    val binValue = Array.tabulate(d)(f =>
      firstRows.map(xs(_)(f)).distinctBy(java.lang.Double.doubleToRawLongBits).sorted(Ordering.Double.TotalOrdering))
    val bin = Array.tabulate(d) { f =>
      val rank = binValue(f).iterator.map(java.lang.Double.doubleToRawLongBits).zipWithIndex.toMap
      firstRows.map(r => rank(java.lang.Double.doubleToRawLongBits(xs(r)(f))))
    }
    // The histogram, filled for each examined feature and emptied by its scan.
    val binRows = new Array[Int](binValue.foldLeft(0)(_ max _.length))
    val binPos = new Array[Int](binRows.length)
    val members = new Array[Int](g) // the current tree's groups of weight > 0
    val weight = new Array[Int](g)
    val order = new Array[Int](d)
    val nFeat = math.max(1, math.sqrt(d.toDouble).round.toInt)
    val rnd = new RandomForest.Lcg(seed)
    val fb = mutable.ArrayBuilder.make[Int]
    val vb = mutable.ArrayBuilder.make[Double]
    val lb = mutable.ArrayBuilder.make[Int]
    val rb = mutable.ArrayBuilder.make[Int]

    def node(f: Int, v: Double, l: Int, r: Int): Int = {
      fb += f; vb += v; lb += l; rb += r
      fb.length - 1
    }

    // Builds the node over members[lo, hi), groups that hold n bootstrap
    // rows, pos of them positive; returns its index. Children come before
    // their parent in the arrays, but are built (and draw) left before
    // right. A node of one row is pure, so scikit-learn's default
    // min_samples_split = 2 needs no test of its own.
    def build(lo: Int, hi: Int, n: Int, pos: Int, depth: Int): Int = {
      if (depth >= maxDepth || pos == 0 || pos == n)
        return node(-1, pos.toDouble / n, -1, -1)

      java.util.Arrays.setAll(order, (f: Int) => f)
      rnd.shuffle(order)
      var bestGain = 0.0
      var bestFeat = -1
      var bestThr = 0.0
      val parentImp = gini(pos, n)
      // Like sklearn's splitter: examine √d random features, but keep going
      // through the remaining ones until a valid split is found — giving up
      // early leaves impure leaves that wreck accuracy on duplicate-heavy data.
      var fi = 0
      while (fi < d && (fi < nFeat || bestFeat < 0)) {
        val f = order(fi)
        val b = bin(f)
        val vs = binValue(f)
        var i = lo
        while (i < hi) {
          val grp = members(i)
          binRows(b(grp)) += weight(grp)
          if (label(grp)) binPos(b(grp)) += weight(grp)
          i += 1
        }
        // Boundaries between consecutive non-empty bins, in ascending order.
        var nL = 0
        var leftPos = 0
        var vL = 0.0
        var k = 0
        while (k < vs.length) {
          if (binRows(k) > 0) {
            val vR = vs(k)
            if (nL > 0 && vL < vR) {
              val nR = n - nL
              val imp = (nL * gini(leftPos, nL) + nR * gini(pos - leftPos, nR)) / n
              val gain = parentImp - imp
              if (gain > bestGain) { bestGain = gain; bestFeat = f; bestThr = (vL + vR) / 2 }
            }
            nL += binRows(k); leftPos += binPos(k); vL = vR
            binRows(k) = 0; binPos(k) = 0
          }
          k += 1
        }
        fi += 1
      }
      if (bestFeat < 0) return node(-1, pos.toDouble / n, -1, -1)

      // Groups whose value is <= the threshold (a midpoint that rounds up to
      // vR sends vR too) go to [lo, mid); no count depends on their order.
      val b = bin(bestFeat)
      val vs = binValue(bestFeat)
      var mid = lo
      var nL = 0
      var leftPos = 0
      var i = lo
      while (i < hi) {
        val grp = members(i)
        if (vs(b(grp)) <= bestThr) {
          members(i) = members(mid)
          members(mid) = grp
          mid += 1
          nL += weight(grp)
          if (label(grp)) leftPos += weight(grp)
        }
        i += 1
      }
      if (mid == lo || mid == hi) return node(-1, pos.toDouble / n, -1, -1)
      val l = build(lo, mid, nL, leftPos, depth + 1)
      val r = build(mid, hi, n - nL, pos - leftPos, depth + 1)
      node(bestFeat, bestThr, l, r)
    }

    roots = Array.fill(nTrees) {
      // Bootstrap: the same n draws as sampling n row indices, summed per group.
      java.util.Arrays.fill(weight, 0)
      var i = 0
      while (i < n) { weight(groupOf(rnd.nextInt(n))) += 1; i += 1 }
      var size = 0
      var pos = 0
      var grp = 0
      while (grp < g) {
        if (weight(grp) > 0) { members(size) = grp; size += 1 }
        if (label(grp)) pos += weight(grp)
        grp += 1
      }
      build(0, size, n, pos, 0)
    }
    dim = d
    nGroups = g
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

object RandomForest {

  /** Numbers the distinct rows of `xs` in first-row order, comparing raw
    * bits: -0.0 and 0.0 differ, and so do two NaN payloads. Returns each
    * row's number and each number's first row.
    */
  def distinct(xs: collection.IndexedSeq[Array[Double]]): (Array[Int], Array[Int]) = {
    val seen = mutable.HashMap.empty[mutable.ArraySeq[Long], Int]
    val firstRows = mutable.ArrayBuilder.make[Int]
    val ids = Array.tabulate(xs.length) { r =>
      seen.getOrElseUpdate(mutable.ArraySeq.make(xs(r).map(java.lang.Double.doubleToRawLongBits)), {
        firstRows += r
        seen.size
      })
    }
    (ids, firstRows.result())
  }

  /** `java.util.Random`'s generator as its Javadoc specifies it, without the
    * atomic seed update: `nextInt(bound)`, bound > 0, draws the stream that
    * `new java.util.Random(seed)` draws; `shuffle` swaps as `scala.util.Random.shuffle`.
    */
  private[truth] final class Lcg(seed: Long) {
    private var state = (seed ^ 0x5DEECE66DL) & ((1L << 48) - 1)
    private def next31(): Int = {
      state = (state * 0x5DEECE66DL + 0xBL) & ((1L << 48) - 1)
      (state >>> 17).toInt
    }
    def nextInt(bound: Int): Int = {
      var u = next31()
      var r = u % bound
      if ((bound & (bound - 1)) == 0) r = ((bound * u.toLong) >> 31).toInt
      else while (u - r + (bound - 1) < 0) { u = next31(); r = u % bound } // the last, partial run
      r
    }
    def shuffle(a: Array[Int]): Unit =
      for (i <- a.length until 1 by -1) { val j = nextInt(i); val t = a(i - 1); a(i - 1) = a(j); a(j) = t }
  }
}
