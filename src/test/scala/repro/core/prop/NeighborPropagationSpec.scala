package repro.core.prop

import repro.{SparkSpec, TestKBs}
import repro.core.graph.ERGraphBuilder
import repro.core.prop.ConsistencyEstimator.Consistency

class NeighborPropagationSpec extends SparkSpec {
  import spark.implicits._

  // --- exact marginals against a brute-force subset enumeration ---
  private def bruteForce(pairs: Array[(Long, Long, Double)], zeta: Double): Array[Double] = {
    val n = pairs.length
    val subsets = (0 until (1 << n)).filter { mask =>
      val chosen = (0 until n).filter(i => (mask & (1 << i)) != 0).map(pairs)
      chosen.map(_._1).distinct.size == chosen.size &&
        chosen.map(_._2).distinct.size == chosen.size
    }
    def score(mask: Int): Double =
      (0 until n).filter(i => (mask & (1 << i)) != 0).map { i =>
        val p = math.min(1 - 1e-9, math.max(1e-9, pairs(i)._3))
        p / (1 - p) * zeta
      }.product
    val total = subsets.map(score).sum
    (0 until n).map { i =>
      subsets.filter(m => (m & (1 << i)) != 0).map(score).sum / total
    }.toArray
  }

  test("paper worked example (§V-B): aligned movies ≈ 0.99, crossed ≈ 0.01 shape") {
    // ε1 = ε2 = 0.9 ⇒ ζ = 81; priors 0.5; candidate pairs CC, PP, CP.
    val pairs = Array((4L, 104L, 0.5), (5L, 105L, 0.5), (4L, 105L, 0.5))
    val post = NeighborPropagation.marginals(pairs, 81.0)
    assert(math.abs(post(0) - 6642.0 / 6805.0) < 1e-9) // (81 + 6561) / total
    assert(math.abs(post(1) - 6642.0 / 6805.0) < 1e-9)
    assert(math.abs(post(2) - 81.0 / 6805.0) < 1e-9)
    assert(post(0) > 0.97 && post(2) < 0.02)
  }
  test("marginals match brute-force enumeration on random instances") {
    val rnd = new scala.util.Random(7)
    (0 until 30).foreach { _ =>
      val nl = 1 + rnd.nextInt(3)
      val nr = 1 + rnd.nextInt(3)
      val pairs = (for {
        l <- 0 until nl; r <- 0 until nr if rnd.nextDouble() < 0.7
      } yield (l.toLong, 100L + r, 0.1 + 0.8 * rnd.nextDouble())).toArray
      if (pairs.nonEmpty) {
        val zeta = math.exp(rnd.nextGaussian())
        val got = NeighborPropagation.marginals(pairs, zeta)
        val want = bruteForce(pairs, zeta)
        got.zip(want).foreach { case (g, w) => assert(math.abs(g - w) < 1e-9) }
      }
    }
  }
  test("higher prior wins between two conflicting pairs") {
    val pairs = Array((1L, 101L, 0.9), (1L, 102L, 0.3))
    val post = NeighborPropagation.marginals(pairs, 10.0)
    assert(post(0) > post(1))
  }
  test("higher zeta strengthens all posteriors") {
    val pairs = Array((1L, 101L, 0.5))
    val low = NeighborPropagation.marginals(pairs, 1.0)(0)
    val high = NeighborPropagation.marginals(pairs, 50.0)(0)
    assert(high > low)
  }
  test("marginals sum over a 1:1 conflict group never exceeds 1") {
    // one left entity, three right options: at most one can match
    val pairs = Array((1L, 101L, 0.6), (1L, 102L, 0.6), (1L, 103L, 0.6))
    val post = NeighborPropagation.marginals(pairs, 5.0)
    assert(post.sum <= 1.0 + 1e-9)
  }
  test("capPairs keeps the highest-prior entities") {
    val pairs = (1 to 10).map(i => (i.toLong, 100L + i, i / 10.0)).toArray
    val capped = NeighborPropagation.capPairs(pairs, 3)
    assert(capped.map(_._1).distinct.length <= 3)
    assert(capped.map(_._2).distinct.length <= 3)
    assert(capped.map(_._3).max == 1.0) // best pair survives
  }

  // --- distributed wrapper over the figure-1 graph ---
  test("probabilistic edges from (Tim,Tim) favour aligned movies over crossed") {
    val (kb1, kb2) = TestKBs.figure1(spark)
    val vertices = (TestKBs.figure1Gold +
      ((TestKBs.Cradle, TestKBs.Player + TestKBs.Off))).toSeq.toDF("id1", "id2")
    val priors = vertices.withColumn("prior", org.apache.spark.sql.functions.lit(0.5))
    val edges = ERGraphBuilder.edges(vertices, kb1, kb2)
    val eps = Map(("y_directed", "d_directed") -> Consistency(0.9, 0.9))
    val prob = NeighborPropagation.probabilisticEdges(spark, edges, priors, eps)
      .collect()
      .map(r => ((r.getLong(0), r.getLong(1)), (r.getLong(2), r.getLong(3))) -> r.getDouble(4))
      .toMap
    val tim = (TestKBs.Tim, TestKBs.Tim + TestKBs.Off)
    val aligned = prob((tim, (TestKBs.Cradle, TestKBs.Cradle + TestKBs.Off)))
    val crossed = prob((tim, (TestKBs.Cradle, TestKBs.Player + TestKBs.Off)))
    assert(aligned > 0.9)
    assert(crossed < 0.1)
  }
  test("unknown relationship pairs fall back to neutral consistency") {
    val (kb1, kb2) = TestKBs.figure1(spark)
    val vertices = TestKBs.figure1Gold.toSeq.toDF("id1", "id2")
    val priors = vertices.withColumn("prior", org.apache.spark.sql.functions.lit(0.5))
    val edges = ERGraphBuilder.edges(vertices, kb1, kb2)
    val out = NeighborPropagation.probabilisticEdges(spark, edges, priors, Map.empty)
    assert(out.count() > 0) // still produces probabilities with ε = 0.5
  }
}
