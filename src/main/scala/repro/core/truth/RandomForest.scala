package repro.core.truth

import scala.collection.mutable
import scala.util.Random

/** From-scratch random forest classifier (§VII-B).
  *
  * The paper trains a scikit-learn random forest with default parameters to
  * resolve isolated entity pairs from their similarity vectors. This is the
  * same algorithm family built locally: CART trees with Gini impurity,
  * bootstrap sampling and √d feature sub-sampling per split. Its training
  * set is every connected pair of a session, small enough to train on the
  * driver: a μ=10 session at scale 1.0 trains on 1,164 rows on iimb and
  * 1,922 on da.
  *
  * Those rows are nearly all duplicates: the similarity features are 0/1
  * and the prior takes few values (436 distinct (row, label) pairs on iimb,
  * 18 on da). So `fit` merges identical rows (same raw bits in every
  * feature, same label) into weighted groups and trains on the groups. The
  * groups are sorted once per feature per `fit` (the CART presort, Breiman
  * et al., 1984). Per tree, the n bootstrap draws of row indices are summed
  * into group weights; a node is a segment of every feature's sorted groups
  * of weight > 0, which a split stably partitions for its children. No node
  * sorts.
  *
  * The trees are the ones a per-node sort of the bootstrap rows builds, bit
  * for bit. A split's gain is read only between distinct values, from the
  * integer counts of rows and positives on each side; a group's rows share
  * their values and label, so these counts are the same sums, taken at the
  * same boundaries in the same order. Leaf values are the same counts'
  * ratios. The random draws are made in the same order: the bootstrap, then
  * one feature shuffle per split node, in pre-order. A feature whose values
  * at a node are all equal has no boundary there or below; its scan and
  * partition are skipped, but it still counts as examined. The fitted trees
  * are stored flat for prediction.
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
  private var nGroups = 0

  /** The distinct (row, label) groups the last `fit` trained on. */
  def groups: Int = nGroups

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
    val (groupOf, firstRows) = RandomForest.distinct(xs.indices.map(r => xs(r) :+ (if (ys(r)) 1.0 else 0.0)))
    val g = firstRows.length
    val label = firstRows.map(ys)
    val cols = Array.tabulate(d)(f => firstRows.map(xs(_)(f)))
    // Groups in ascending order of each feature, ties in group order, under
    // Ordering.Double's total order (-0.0 before 0.0, NaN last): a node's
    // values then read as sorting them at the node would order them.
    val order = cols.map(col => Array.range(0, g).sortBy(col(_)))
    // The current tree's groups of weight > 0, sorted by each feature.
    val sorted = Array.fill(d)(new Array[Int](g))
    val scratch = new Array[Int](g)
    val weight = new Array[Int](g)
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

    // Builds the node over segment [lo, hi) of every feature's groups, which
    // hold n bootstrap rows, pos of them positive; returns its index.
    // Children come before their parent in the arrays, but are built (and
    // draw) left before right. A node of one row is pure, so scikit-learn's
    // default min_samples_split = 2 needs no test of its own.
    def build(lo: Int, hi: Int, n: Int, pos: Int, depth: Int): Int = {
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
        if (col(s(lo)) != col(s(hi - 1))) {
          var nL = 0
          var leftPos = 0
          var i = lo
          while (i < hi - 1) {
            val w = weight(s(i))
            nL += w
            if (label(s(i))) leftPos += w
            val vL = col(s(i))
            val vR = col(s(i + 1))
            if (vL < vR) {
              val nR = n - nL
              val imp = (nL * gini(leftPos, nL) + nR * gini(pos - leftPos, nR)) / n
              val gain = parentImp - imp
              if (gain > bestGain) { bestGain = gain; bestFeat = f; bestThr = (vL + vR) / 2 }
            }
            i += 1
          }
        }
        fi += 1
      }
      if (bestFeat < 0) return node(-1, pos.toDouble / n, -1, -1)

      // The groups going left are a prefix of the split feature's segment.
      val splitCol = cols(bestFeat)
      val thr = bestThr
      val bs = sorted(bestFeat)
      var mid = lo
      var nL = 0
      var leftPos = 0
      while (mid < hi && splitCol(bs(mid)) <= thr) {
        val w = weight(bs(mid))
        nL += w
        if (label(bs(mid))) leftPos += w
        mid += 1
      }
      if (mid == lo || mid == hi) return node(-1, pos.toDouble / n, -1, -1)
      // Stable partition of each feature's segment. The split feature's is
      // already partitioned, and a feature constant on it is never scanned
      // again below: both stay as they are.
      var f = 0
      while (f < d) {
        val s = sorted(f)
        val col = cols(f)
        if (f != bestFeat && col(s(lo)) != col(s(hi - 1))) {
          var l = lo
          var r = 0
          var j = lo
          while (j < hi) {
            val grp = s(j)
            if (splitCol(grp) <= thr) { s(l) = grp; l += 1 }
            else { scratch(r) = grp; r += 1 }
            j += 1
          }
          System.arraycopy(scratch, 0, s, l, r)
        }
        f += 1
      }
      val l = build(lo, mid, nL, leftPos, depth + 1)
      val r = build(mid, hi, n - nL, pos - leftPos, depth + 1)
      node(bestFeat, thr, l, r)
    }

    roots = Array.fill(nTrees) {
      // Bootstrap: the same n draws as sampling n row indices, summed per group.
      java.util.Arrays.fill(weight, 0)
      var i = 0
      while (i < n) { weight(groupOf(rnd.nextInt(n))) += 1; i += 1 }
      var f = 0
      while (f < d) { // the groups of weight > 0, in order(f)
        val o = order(f)
        val s = sorted(f)
        var k = 0
        var j = 0
        while (j < g) {
          if (weight(o(j)) > 0) { s(k) = o(j); k += 1 }
          j += 1
        }
        f += 1
      }
      var size = 0
      var pos = 0
      var grp = 0
      while (grp < g) {
        if (weight(grp) > 0) size += 1
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
}
