package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

class ResultSpec extends AnyFunSuite {

  test("the result line has the four keys and every metric with its unit") {
    val line = Json.result(correct = true, attempted = 3, failed = 0,
      Seq(("prepare_s", 12.25, "s"), ("loops", 15.0, "count")))
    assert(line ==
      """{"correct": true, "attempted": 3, "failed": 0, "metrics": {"prepare_s": {"value": 12.25, "unit": "s"}, "loops": {"value": 15.0, "unit": "count"}}}""")
  }

  test("a metric that is not a number is refused") {
    assertThrows[IllegalArgumentException](Json.result(true, 1, 0, Seq(("x", Double.NaN, "s"))))
  }

  test("options name a known workload and a trace flag of 0 or 1") {
    val o = Main.parse(Array("--workload", "crowd-sessions", "--seed", "7", "--seconds", "10", "--trace", "1"))
    assert(o.workload.profile == "da" && o.seed == 7L && o.seconds == 10 && o.trace)
    assertThrows[IllegalArgumentException](
      Main.parse(Array("--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0")))
    assertThrows[IllegalArgumentException](
      Main.parse(Array("--workload", "prepare-dense", "--seed", "1", "--seconds", "1", "--trace", "2")))
    assertThrows[IllegalArgumentException](Main.parse(Array("--workload", "prepare-dense")))
  }

  test("worker seeds differ per session and per batch size") {
    val seeds = for (mu <- Seq(1, 10); i <- 0 until 20) yield Sessions.workerSeed(5L, mu, i)
    assert(seeds.distinct.size == seeds.size)
  }

  test("the drift guard names exactly the outputs that differ") {
    val d = PrepareDigest(10, Set((1L, 2L)), Set.empty, Set((1L, 2L, 3L, 4L, 0.5)),
      Map((1L, 2L) -> 3), connected = 1, isolated = 0)
    assert(d.drift(d).isEmpty)
    val other = d.copy(probEdges = Set((1L, 2L, 3L, 4L, 0.25)), isolated = 1)
    assert(d.drift(other) == Seq("probEdges", "isolated"))
  }
}
