package repro.core.select

import repro.PropSpec
import scala.collection.mutable

class QuestionSelectionSpec extends PropSpec {
  import QuestionSelection._

  /** benefit(Q) (Eq. 16), the reference the selection must maximise. */
  private def benefit(
      q: Set[Pair],
      inferred: Map[Pair, Seq[Pair]],
      priors: Map[Pair, Double],
      unresolved: Set[Pair]): Double = {
    val b = mutable.Map.empty[Pair, Double]
    for (qq <- q; p <- inferred(qq) if unresolved.contains(p)) {
      val old = b.getOrElse(p, 0.0)
      b(p) = old + (1.0 - old) * priors(qq)
    }
    b.values.sum
  }

  private def p(i: Int): Pair = (i.toLong, 1000000L + i)

  private val inferred: Map[Pair, Seq[Pair]] = Map(
    p(1) -> Seq(p(1), p(2), p(3), p(4)),
    p(2) -> Seq(p(2)),
    p(5) -> Seq(p(5), p(6)),
    p(7) -> Seq(p(7), p(8), p(9)))
  private val priors: Map[Pair, Double] =
    Map(p(1) -> 0.9, p(2) -> 0.95, p(5) -> 0.8, p(7) -> 0.7)
  private val all: Set[Pair] = (1 to 9).map(p).toSet

  // --- benefit ---
  test("benefit of empty set is 0") {
    assert(benefit(Set.empty, inferred, priors, all) == 0.0)
  }
  test("benefit of one question is prior times coverage") {
    assert(math.abs(benefit(Set(p(1)), inferred, priors, all) - 0.9 * 4) < 1e-9)
  }
  test("benefit respects the unresolved filter") {
    val b = benefit(Set(p(1)), inferred, priors, Set(p(2)))
    assert(math.abs(b - 0.9) < 1e-9)
  }
  test("benefit of overlapping questions uses noisy-or") {
    val inf = Map(p(1) -> Seq(p(3)), p(2) -> Seq(p(3)))
    val b = benefit(Set(p(1), p(2)), inf, Map(p(1) -> 0.5, p(2) -> 0.5), Set(p(3)))
    assert(math.abs(b - 0.75) < 1e-9)
  }
  test("benefit is monotone increasing") {
    forSeeds() { rnd =>
      val qs = priors.keySet.toSeq
      val q1 = qs.filter(_ => rnd.nextBoolean()).toSet
      val extra = qs(rnd.nextInt(qs.size))
      assert(benefit(q1 + extra, inferred, priors, all) >= benefit(q1, inferred, priors, all) - 1e-12)
    }
  }
  test("benefit is submodular (Theorem 2)") {
    forSeeds() { rnd =>
      val qs = priors.keySet.toSeq
      val base = qs.filter(_ => rnd.nextBoolean()).toSet
      val rest = qs.filterNot(base.contains)
      if (rest.size >= 2) {
        val q1 = rest.head
        val q2 = rest(1)
        val lhs = benefit(base + q1, inferred, priors, all) - benefit(base, inferred, priors, all)
        val rhs = benefit(base + q1 + q2, inferred, priors, all) - benefit(base + q2, inferred, priors, all)
        assert(lhs >= rhs - 1e-12)
      }
    }
  }

  // --- greedy selection ---
  test("greedy picks the highest-benefit question first") {
    val sel = selectGreedy(inferred, priors, priors.keySet, all, 1)
    assert(sel == Seq(p(1))) // 0.9*4 = 3.6 beats all others
  }
  test("greedy respects mu") {
    assert(selectGreedy(inferred, priors, priors.keySet, all, 2).size == 2)
  }
  test("greedy ignores zero-benefit questions") {
    val sel = selectGreedy(inferred, priors, priors.keySet, Set.empty[Pair], 10)
    assert(sel.isEmpty)
  }
  test("a candidate with no prior is rejected") {
    intercept[NoSuchElementException] {
      selectGreedy(inferred, priors - p(5), priors.keySet, all, 1)
    }
    intercept[NoSuchElementException] {
      InferredGraph(Seq(p(2), p(5)), Map(p(2) -> Seq(p(2)), p(5) -> Seq(p(5))), priors - p(5))
    }
  }
  test("greedy breaks ties in gain by pair order, whatever the candidates' order") {
    // Six disjoint questions of equal gain: the smallest pairs win.
    val inf = (1 to 6).map(i => p(i) -> Seq(p(i), p(10 + i))).toMap
    val pri = (1 to 6).map(i => p(i) -> 0.5).toMap
    val universe = inf.values.flatten.toSet
    forSeeds() { rnd =>
      val shuffled = scala.collection.immutable.ListSet(rnd.shuffle(inf.keys.toSeq): _*)
      assert(selectGreedy(inf, pri, shuffled, universe, 3) == Seq(p(1), p(2), p(3)))
    }
  }
  test("greedy matches exhaustive optimum on small instances") {
    forSeeds(30) { rnd =>
      val n = 5
      val inf = (1 to n).map { i =>
        p(i) -> (Seq(p(i)) ++ (1 to n).filter(_ => rnd.nextBoolean()).map(p))
      }.toMap
      val pri = (1 to n).map(i => p(i) -> (0.2 + 0.8 * rnd.nextDouble())).toMap
      val universe = (1 to n).map(p).toSet
      val sel = selectGreedy(inf, pri, universe, universe, 2)
      val best = universe.subsets(2).map(q => benefit(q, inf, pri, universe)).max
      val got = benefit(sel.toSet, inf, pri, universe)
      // (1 − 1/e) guarantee; in practice greedy is near-optimal here
      assert(got >= best * (1 - 1.0 / math.E) - 1e-9)
    }
  }

  /** Plain greedy: every step scores each remaining candidate afresh and
    * takes the largest gain, the smallest pair among equal gains.
    */
  private def plainGreedy(
      inferred: Map[Pair, Seq[Pair]],
      priors: Map[Pair, Double],
      candidates: Set[Pair],
      unresolved: Set[Pair],
      mu: Int): Seq[Pair] = {
    val b = mutable.Map.empty[Pair, Double].withDefaultValue(0.0)
    def gain(q: Pair): Double =
      inferred(q).iterator.filter(unresolved).map(p => (1.0 - b(p)) * priors(q)).sum
    val selected = mutable.ArrayBuffer.empty[Pair]
    var rest = candidates.toSeq.sorted
    var stop = false
    while (!stop && selected.size < mu && rest.nonEmpty) {
      // maxBy keeps the first of equal maxima, and `rest` is in pair order.
      val (q, g) = rest.map(q => (q, gain(q))).maxBy(_._2)
      if (g <= 0) stop = true
      else {
        selected += q
        rest = rest.filterNot(_ == q)
        for (p <- inferred(q) if unresolved(p)) b(p) = b(p) + (1.0 - b(p)) * priors(q)
      }
    }
    selected.toSeq
  }

  test("lazy greedy on the index equals plain greedy with the (gain desc, pair asc) tie-break") {
    forSeeds(200) { rnd =>
      // Priors of 1/2 and 1/4 and lists of few sizes: the gains are exact
      // dyadic sums, so equal gains are frequent and compare equal.
      val n = 3 + rnd.nextInt(10)
      val all = (1 to n).map(p)
      val inf = all.map(q => q -> (Seq(q) ++ all.filter(x => x != q && rnd.nextInt(3) == 0))).toMap
      val pri = all.map(q => q -> (if (rnd.nextBoolean()) 0.5 else 0.25)).toMap
      val unresolved = all.filter(_ => rnd.nextInt(4) != 0).toSet
      val candidates = unresolved.filter(_ => rnd.nextInt(3) != 0)
      val mu = 1 + rnd.nextInt(n)
      val g = InferredGraph(all, inf, pri)
      val state = g.pairs.map(x => if (unresolved(x)) InferredGraph.Unresolved else InferredGraph.LabelledMatch)
      val lazySel = selectGreedy(g, g.priors, state, rnd.shuffle(candidates.toSeq).map(g.index).toArray, mu)
      assert(lazySel.toSeq.map(g.pairs) == plainGreedy(inf, pri, candidates, unresolved, mu))
    }
  }

  // --- MaxInf / MaxPr, on the index ---
  private val graph = InferredGraph(all, q => inferred.getOrElse(q, Seq(q)), q => priors.getOrElse(q, 0.0))
  private def stateOf(unresolved: Set[Pair]): Array[Byte] =
    graph.pairs.map(x => if (unresolved(x)) InferredGraph.Unresolved else InferredGraph.LabelledMatch)
  private val sources: Array[Int] = priors.keys.toArray.map(graph.index)

  test("MaxInf picks the largest inferred set") {
    assert(selectMaxInf(graph, stateOf(all), sources, 1).toSeq.map(graph.pairs) == Seq(p(1)))
  }
  test("MaxInf counts only unresolved pairs") {
    val sel = selectMaxInf(graph, stateOf(Set(p(5), p(6))), sources, 1)
    assert(sel.toSeq.map(graph.pairs) == Seq(p(5)))
  }
  test("MaxPr picks the highest prior") {
    assert(selectMaxPr(graph.priors, sources, 1).toSeq.map(graph.pairs) == Seq(p(2)))
  }
  test("MaxPr respects mu and ordering") {
    assert(selectMaxPr(graph.priors, sources, 2).toSeq.map(graph.pairs) == Seq(p(2), p(1)))
  }
}
