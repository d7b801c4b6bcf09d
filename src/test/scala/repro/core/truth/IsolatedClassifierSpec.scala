package repro.core.truth

import repro.PropSpec

class IsolatedClassifierSpec extends PropSpec {

  private def rows(n: Int)(x: Int => Array[Double]): Array[Array[Double]] = Array.tabulate(n)(x)

  test("classifies isolated pairs like the training distribution") {
    val xs = rows(80)(i => if (i < 40) Array(0.9, 0.85) else Array(0.1, 0.15))
    val ys = Array.tabulate(80)(_ < 40)
    val (verdicts, groups) = IsolatedClassifier.classify(xs, ys, Array(Array(0.88, 0.9), Array(0.12, 0.1)))
    assert(verdicts.toSeq == Seq(true, false))
    assert(groups == 2)
  }
  test("no isolated pairs yields empty set") {
    val (verdicts, groups) = IsolatedClassifier.classify(Array(Array(0.9), Array(0.1)), Array(true, false), Array.empty)
    assert(verdicts.isEmpty && groups == 0)
  }
  test("degenerate all-positive training yields empty (nothing learnable)") {
    val (verdicts, groups) = IsolatedClassifier.classify(rows(10)(_ => Array(0.9)), Array.fill(10)(true), Array(Array(0.9)))
    assert(verdicts.toSeq == Seq(false) && groups == 0)
  }
  test("degenerate all-negative training yields empty") {
    val (verdicts, groups) = IsolatedClassifier.classify(rows(10)(_ => Array(0.1)), Array.fill(10)(false), Array(Array(0.1)))
    assert(verdicts.toSeq == Seq(false) && groups == 0)
  }
  test("deterministic in seed") {
    val xs = rows(30)(i => Array(i / 30.0))
    val ys = Array.tabulate(30)(_ >= 15)
    val vectors = rows(10)(i => Array(i / 10.0))
    val (first, _) = IsolatedClassifier.classify(xs, ys, vectors)
    val (second, _) = IsolatedClassifier.classify(xs, ys, vectors)
    assert(first.toSeq == second.toSeq)
    val forest = new RandomForest(seed = IsolatedClassifier.Seed).fit(xs, ys)
    assert(first.toSeq == vectors.toSeq.map(forest.predict))
  }
  test("reports the distinct (row, label) groups it trained on") {
    val xs = Array(Array(1.0, 0.0), Array(0.0, 0.0), Array(1.0, 0.0), Array(1.0, 0.0), Array(0.0, 0.0))
    val ys = Array(true, false, false, true, false)
    val (_, groups) = IsolatedClassifier.classify(xs, ys, Array(Array(1.0, 0.0)))
    assert(groups == 3) // (1 0, match), (0 0, non-match), (1 0, non-match)
  }
}
