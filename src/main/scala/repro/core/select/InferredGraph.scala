package repro.core.select

/** The inferred sets inferred(·) (Algorithm 2) over pairs numbered 0..n−1 in
  * pair order, as compressed sparse rows: pair i's targets are
  * `targets(offsets(i) until offsets(i + 1))`, in the order of its inferred
  * list. `priors(i)` is pair i's prior. Index order is pair order, so the
  * smaller index is the smaller pair.
  *
  * The crowd loop keeps one state byte per pair: `Unresolved` (0), or a set
  * of the flags `LabelledMatch`, `InferredMatch` and `LabelledNonMatch`.
  */
final class InferredGraph private (
    val pairs: Array[(Long, Long)],
    val index: Map[(Long, Long), Int],
    val offsets: Array[Int],
    val targets: Array[Int],
    val priors: Array[Double]) {

  def size: Int = pairs.length

  /** The unresolved pairs whose inferred set holds another unresolved pair,
    * in index order.
    */
  def askable(state: Array[Byte]): Array[Int] = {
    val out = Array.newBuilder[Int]
    var q = 0
    while (q < size) {
      if (state(q) == InferredGraph.Unresolved) {
        var i = offsets(q)
        val end = offsets(q + 1)
        while (i < end && (targets(i) == q || state(targets(i)) != InferredGraph.Unresolved)) i += 1
        if (i < end) out += q
      }
      q += 1
    }
    out.result()
  }
}

object InferredGraph {

  val Unresolved: Byte = 0
  val LabelledMatch: Byte = 1
  val InferredMatch: Byte = 2
  val LabelledNonMatch: Byte = 4

  /** Numbers `pairs` in pair order. Every pair must have an inferred list
    * and a prior, and every target must be one of `pairs`; a missing one is
    * rejected (`NoSuchElementException`).
    */
  def apply(
      pairs: Iterable[(Long, Long)],
      inferred: ((Long, Long)) => Seq[(Long, Long)],
      prior: ((Long, Long)) => Double): InferredGraph = {
    val sorted = pairs.toArray.sorted
    val index = sorted.iterator.zipWithIndex.toMap
    val offsets = new Array[Int](sorted.length + 1)
    val targets = Array.newBuilder[Int]
    for (i <- sorted.indices) {
      val ts = inferred(sorted(i))
      ts.foreach(p => targets += index(p))
      offsets(i + 1) = offsets(i) + ts.size
    }
    new InferredGraph(sorted, index, offsets, targets.result(), sorted.map(prior))
  }
}
