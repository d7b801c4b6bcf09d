package repro.core.prop

import repro.{SparkSpec, TestKBs}
import repro.kb.KB

class ConsistencyEstimatorSpec extends SparkSpec {
  import spark.implicits._

  private def kbOf(rels: Seq[(Long, String, Long)], side: Int): KB = {
    val ids = rels.flatMap(r => Seq(r._1, r._3)).distinct
    KB.fromLocal(spark,
      ids.map(i => (i, s"e$i", "t")),
      Seq.empty,
      rels)
  }

  test("Consistency rejects an epsilon of 0 or 1") {
    // At 0 or 1, Eq. 9's zeta is 0 or infinite and the marginals are NaN.
    intercept[IllegalArgumentException](ConsistencyEstimator.Consistency(0.0, 0.5))
    intercept[IllegalArgumentException](ConsistencyEstimator.Consistency(0.5, 1.0))
  }
  test("perfectly consistent functional relationship gets high epsilon") {
    // 20 matched subjects, each with exactly one matched value on both sides
    val rels1 = (0 until 20).map(i => (i.toLong, "r1", 100L + i))
    val rels2 = (0 until 20).map(i => (1000L + i, "r2", 1100L + i))
    val mIn = ((0 until 20).map(i => (i.toLong, 1000L + i)) ++
      (0 until 20).map(i => (100L + i, 1100L + i))).toDF("id1", "id2")
    val eps = ConsistencyEstimator.estimate(spark, kbOf(rels1, 1), kbOf(rels2, 2), mIn)
    val c = eps(("r1", "r2"))
    assert(c.eps1 > 0.8, s"eps1=${c.eps1}")
    assert(c.eps2 > 0.8, s"eps2=${c.eps2}")
  }
  test("one-sided-only relationship gets low epsilon") {
    // r1 exists for matched subjects; r2 never does ⇒ no co-occurrence rows,
    // so the pair is absent from the estimate entirely.
    val rels1 = (0 until 10).map(i => (i.toLong, "r1", 100L + i))
    val rels2 = Seq((5000L, "r2", 6000L)) // unmatched subject
    val mIn = (0 until 10).map(i => (i.toLong, 1000L + i)).toDF("id1", "id2")
    val eps = ConsistencyEstimator.estimate(spark, kbOf(rels1, 1), kbOf(rels2, 2), mIn)
    assert(!eps.contains(("r1", "r2")))
  }
  test("dropout lowers the estimated consistency") {
    def run(dropEvery: Int): ConsistencyEstimator.Consistency = {
      val n = 30
      val rels1 = (0 until n).map(i => (i.toLong, "r1", 100L + i))
      // KB2 drops every `dropEvery`-th counterpart value
      val rels2 = (0 until n).filter(_ % dropEvery != 0)
        .map(i => (1000L + i, "r2", 1100L + i))
      val mIn = ((0 until n).map(i => (i.toLong, 1000L + i)) ++
        (0 until n).map(i => (100L + i, 1100L + i))).toDF("id1", "id2")
      ConsistencyEstimator.estimate(spark, kbOf(rels1, 1), kbOf(rels2, 2), mIn)(("r1", "r2"))
    }
    val light = run(10) // 10% dropped
    val heavy = run(2)  // 50% dropped
    assert(light.eps1 > heavy.eps1, s"light=$light heavy=$heavy")
  }
  test("epsilons always lie strictly inside (0,1)") {
    val (kb1, kb2) = TestKBs.figure1(spark)
    val mIn = TestKBs.figure1Gold.toSeq.toDF("id1", "id2")
    val eps = ConsistencyEstimator.estimate(spark, kb1, kb2, mIn)
    assert(eps.nonEmpty)
    eps.values.foreach { c =>
      assert(c.eps1 > 0.0 && c.eps1 < 1.0)
      assert(c.eps2 > 0.0 && c.eps2 < 1.0)
    }
  }
  test("figure-1 aligned relationships are more consistent than crossed ones") {
    val (kb1, kb2) = TestKBs.figure1(spark)
    val mIn = TestKBs.figure1Gold.toSeq.toDF("id1", "id2")
    val eps = ConsistencyEstimator.estimate(spark, kb1, kb2, mIn)
    val aligned = eps(("y_directed", "d_directed"))
    assert(aligned.eps1 >= 0.5 && aligned.eps2 >= 0.5, s"aligned=$aligned")
    for (crossed <- eps.get(("y_directed", "d_wasBornIn")))
      assert(crossed.eps1 <= aligned.eps1 + 1e-9)
  }
  test("estimate equals ΣL/Σn_i computed by hand over local triples") {
    // Seeded random KBs with shared objects, one KB1 subject in two initial
    // matches, and value matches that differ from M_in.
    for (seed <- 1 to 4) {
      val rnd = new scala.util.Random(seed)
      def triples(subjs: Range, objs: Range, rels: Seq[String]) =
        (for (u <- subjs; r <- rels; v <- objs if rnd.nextDouble() < 0.3) yield (u.toLong, r, v.toLong))
      val t1 = triples(0 until 8, 100 until 110, Seq("a", "b"))
      val t2 = triples(1000 until 1008, 1100 until 1110, Seq("x", "y", "z"))
      val mIn = ((0 until 8).map(i => (i.toLong, 1000L + i)) :+ ((0L, 1001L))).distinct
      val valueMatches = (for (v1 <- 100 until 110; v2 <- 1100 until 1110
                               if v2 - 1000 == v1 || rnd.nextDouble() < 0.1) yield (v1.toLong, v2.toLong))

      val vm = valueMatches.toSet
      def values(t: Seq[(Long, String, Long)], u: Long, r: String) = t.filter(x => x._1 == u && x._2 == r).map(_._3)
      val expected = (for (r1 <- Seq("a", "b"); r2 <- Seq("x", "y", "z")) yield {
        val sumL = mIn.map { case (u1, u2) =>
          (for (v1 <- values(t1, u1, r1); v2 <- values(t2, u2, r2) if vm((v1, v2))) yield 1).size
        }.sum
        val n1 = mIn.map { case (u1, _) => values(t1, u1, r1).size }.sum
        val n2 = mIn.map { case (_, u2) => values(t2, u2, r2).size }.sum
        def clamp(x: Double) = math.min(1.0 - ConsistencyEstimator.Floor, math.max(ConsistencyEstimator.Floor, x))
        (r1, r2) -> (sumL, ConsistencyEstimator.Consistency(
          clamp(sumL.toDouble / n1), clamp(sumL.toDouble / n2)))
      }).collect { case (k, (l, c)) if l > 0 => k -> c }.toMap
      assert(expected.nonEmpty)

      val eps = ConsistencyEstimator.estimate(spark, kbOf(t1, 1), kbOf(t2, 2), mIn.toDF("id1", "id2"),
        Some(valueMatches.toDF("id1", "id2")))
      assert(eps == expected, s"seed $seed")
    }
  }
}
