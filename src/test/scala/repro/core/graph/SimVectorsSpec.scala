package repro.core.graph

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestKBs}
import repro.util.StringSim

class SimVectorsSpec extends SparkSpec {
  import spark.implicits._

  private lazy val (kb1, kb2) = TestKBs.figure1(spark)
  private lazy val cands = CandidateGen.candidates(kb1, kb2, 0.3).cache()
  private val attrMatches = Seq(
    ("y_born", "d_born", 1.0), ("y_year", "d_year", 1.0), ("y_pop", "d_pop", 1.0))

  private lazy val withVec =
    SimVectors.withVectors(spark, cands, kb1, kb2, attrMatches, 0.9).cache()

  private def vecOf(id1: Long, id2: Long): Array[Double] =
    withVec.filter($"id1" === id1 && $"id2" === id2)
      .select("vec").collect().head.getSeq[Double](0).toArray

  test("vector length equals the number of attribute matches") {
    withVec.select("vec").collect().foreach(r => assert(r.getSeq[Double](0).size == 3))
  }
  test("true match has similarity 1 on its populated attribute") {
    val v = vecOf(TestKBs.Joan, TestKBs.Joan + TestKBs.Off)
    assert(v(0) == 1.0) // y_born = d_born = 1908
    assert(v(1) == 0.0 && v(2) == 0.0) // person has no year/pop attributes
  }
  test("non-match candidate pair has low attribute similarity") {
    // (Cradle, Player+Off) — if it is even a candidate — must not score 1.
    val rows = withVec.filter($"id1" === TestKBs.Cradle &&
      $"id2" === TestKBs.Player + TestKBs.Off).collect()
    rows.foreach(r => assert(r.getSeq[Double](r.fieldIndex("vec")).forall(_ < 1.0)))
  }
  test("empty attribute match list yields empty vectors") {
    val out = SimVectors.withVectors(spark, cands, kb1, kb2, Seq.empty, 0.9)
    out.select("vec").collect().foreach(r => assert(r.getSeq[Double](0).isEmpty))
  }
  test("all vector components are in [0,1]") {
    withVec.select("vec").collect()
      .foreach(r => r.getSeq[Double](0).foreach(v => assert(v >= 0.0 && v <= 1.0)))
  }
  test("every candidate row is preserved (left join semantics)") {
    assert(withVec.count() == cands.count())
  }
  test("numeric tolerance: close years are similar, far years are not") {
    // Perturb d_year of Cradle to 1930: |1933−1930|/1933 ≈ 0.0016 ⇒ sim ≈ 0.998 ≥ 0.9
    val attrs2 = kb2.attrs.withColumn("value",
      when($"subj" === TestKBs.Cradle + TestKBs.Off && $"attr" === "d_year", lit("1930"))
        .otherwise($"value"))
    val out = SimVectors.withVectors(spark, cands, kb1, kb2.copy(attrs = attrs2), attrMatches, 0.9)
    val v = out.filter($"id1" === TestKBs.Cradle && $"id2" === TestKBs.Cradle + TestKBs.Off)
      .select("vec").collect().head.getSeq[Double](0)
    assert(v(1) == 1.0) // within the 0.9 internal threshold ⇒ counted as shared
  }
  test("withVectors equals vectors built by hand, with a non-injective match list") {
    // Seeded random triples with repeated values; attribute a and attribute y
    // are each in two matches, and w has no KB2 values at all.
    val rnd = new scala.util.Random(5)
    val t1 = TestKBs.randomAttrs(rnd, 0 until 10, Seq("a", "b", "c"))
    val t2 = TestKBs.randomAttrs(rnd, 1000 until 1010, Seq("x", "y", "z"))
    val matches = Seq(("a", "x", 1.0), ("a", "y", 0.9), ("b", "y", 0.8), ("c", "w", 0.7))
    val pairs = for (u1 <- 0L until 10L; u2 <- 1000L until 1010L if rnd.nextDouble() < 0.4) yield (u1, u2)

    val expected = pairs.map { case (u1, u2) =>
      (u1, u2) -> matches.map { case (a1, a2, _) =>
        val (v1, v2) = (TestKBs.values(t1, u1, a1), TestKBs.values(t2, u2, a2))
        if (v1.isEmpty || v2.isEmpty) 0.0 else StringSim.simL(v1, v2)
      }
    }.toMap

    val cands = pairs.map { case (u1, u2) => (u1, u2, 0.5, false) }.toDF("id1", "id2", "prior", "exact")
    val got = SimVectors.withVectors(spark, cands, TestKBs.attrKB(spark, t1), TestKBs.attrKB(spark, t2), matches, 0.9)
      .select("id1", "id2", "vec").collect()
      .map(r => (r.getLong(0), r.getLong(1)) -> r.getSeq[Double](2)).toMap
    assert(got == expected)
  }
}
