package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("quantile interpolates between order statistics") {
    val xs = Seq(4.0, 1.0, 3.0, 2.0)
    assert(Stats.quantile(xs, 0.0) == 1.0)
    assert(Stats.quantile(xs, 1.0) == 4.0)
    assert(Stats.median(xs) == 2.5)
    assert(math.abs(Stats.quantile(xs, 0.9) - 3.7) < 1e-12)
    assert(Stats.quantile(Seq(7.0), 0.99) == 7.0)
  }

  test("quantile rejects empty input and out-of-range q") {
    assertThrows[IllegalArgumentException](Stats.quantile(Nil, 0.5))
    assertThrows[IllegalArgumentException](Stats.quantile(Seq(1.0), 1.5))
  }

  test("tail percentile keeps at least ten samples beyond it") {
    assert(Stats.tailPercentile(10000).contains(99.9))
    assert(Stats.tailPercentile(9999).contains(99.0))
    assert(Stats.tailPercentile(1000).contains(99.0))
    assert(Stats.tailPercentile(999).contains(90.0))
    assert(Stats.tailPercentile(100).contains(90.0))
    assert(Stats.tailPercentile(99).contains(50.0))
    assert(Stats.tailPercentile(20).contains(50.0))
    assert(Stats.tailPercentile(19).isEmpty)
    assert(Stats.tailPercentile(0).isEmpty)
  }

  test("a round is the gap between two dispatches") {
    val ms = 1000000L
    assert(Stats.roundGapsMs(Seq(5 * ms, 7 * ms, 12 * ms)) == Seq(2.0, 5.0))
    assert(Stats.roundGapsMs(Seq(4 * ms)).isEmpty)
    assert(Stats.roundGapsMs(Nil).isEmpty)
  }

  test("busy ratio is task time over the cores' capacity during the span") {
    assert(Stats.busyRatio(taskRunMs = 8000, wallS = 4.0, cores = 4) == 0.5)
    assert(Stats.busyRatio(taskRunMs = 16000, wallS = 4.0, cores = 4) == 1.0)
    assert(Stats.busyRatio(taskRunMs = 100, wallS = 0.0, cores = 4) == 0.0)
  }

  test("self time subtracts the union of child intervals, clipped to the span") {
    val s = 1000000000L
    // Children cover [1,5] (two overlapping) and [7,8]: 5 of 10 seconds.
    assert(Stats.selfTimeS(0, 10 * s, Seq((1 * s, 3 * s), (2 * s, 5 * s), (7 * s, 8 * s))) == 5.0)
    // A child sticking out of the span counts only for its inside part.
    assert(Stats.selfTimeS(0, 10 * s, Seq((8 * s, 12 * s))) == 8.0)
    // Sequential children that tile the span leave no self time.
    assert(Stats.selfTimeS(0, 4 * s, Seq((0, 2 * s), (2 * s, 4 * s))) == 0.0)
    assert(Stats.selfTimeS(0, 4 * s, Nil) == 4.0)
  }
}
