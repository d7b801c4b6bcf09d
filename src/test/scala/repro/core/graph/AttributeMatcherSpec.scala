package repro.core.graph

import repro.{SparkSpec, TestKBs}
import repro.util.StringSim

class AttributeMatcherSpec extends SparkSpec {
  import spark.implicits._

  private lazy val (kb1, kb2) = TestKBs.figure1(spark)
  private lazy val mIn = TestKBs.figure1Gold.toSeq.toDF("id1", "id2")
  private lazy val sims = AttributeMatcher.attributeSimilarities(spark, kb1, kb2, mIn, 0.9)

  private def simOf(s: Seq[(String, String, Double)], a1: String, a2: String): Seq[Double] =
    s.collect { case (`a1`, `a2`, v) => v }

  test("identical-value attribute pairs get similarity 1") {
    assert(simOf(sims, "y_born", "d_born") == Seq(1.0))
  }
  test("cross attribute pairs get low similarity") {
    simOf(sims, "y_born", "d_year").foreach(v => assert(v < 0.5))
  }
  test("1:1 matching recovers the renamed attribute alignment") {
    val m = AttributeMatcher.matchAttributes(sims, 0.4).map(t => (t._1, t._2)).toSet
    assert(m == Set(("y_born", "d_born"), ("y_year", "d_year"), ("y_pop", "d_pop")))
  }
  test("1:1 matching is injective on both sides") {
    val m = AttributeMatcher.matchAttributes(sims, 0.4)
    assert(m.map(_._1).distinct.size == m.size)
    assert(m.map(_._2).distinct.size == m.size)
  }
  test("no-1:1 variant is a superset of 1:1 under the same threshold") {
    val m11 = AttributeMatcher.matchAttributes(sims, 0.4).map(t => (t._1, t._2)).toSet
    val mAll = AttributeMatcher.matchAttributesNo11(sims, 0.4).map(t => (t._1, t._2)).toSet
    assert(m11.subsetOf(mAll))
  }
  test("attribute similarity denominator counts one-sided support (Eq. 1)") {
    // Give KB1 an attribute that only half the matched entities carry; its
    // values always agree, but sim_A must be diluted by the one-sided rows.
    val attrs1 = (kb1.attrs.collect().map(r => (r.getLong(0), r.getString(1), r.getString(2))) ++
      Seq((TestKBs.Joan, "y_rare", "zzz"))).toSeq.toDF("subj", "attr", "value")
    val attrs2 = (kb2.attrs.collect().map(r => (r.getLong(0), r.getString(1), r.getString(2))) ++
      Seq((TestKBs.Joan + TestKBs.Off, "d_rare", "zzz"),
        (TestKBs.John + TestKBs.Off, "d_rare", "qqq"))).toSeq.toDF("subj", "attr", "value")
    val kb1b = kb1.copy(attrs = attrs1)
    val kb2b = kb2.copy(attrs = attrs2)
    val s = simOf(AttributeMatcher.attributeSimilarities(spark, kb1b, kb2b, mIn, 0.9), "y_rare", "d_rare")
    // numerator: 1 (Joan); denominator: pairs(y_rare)=1 + pairs(d_rare)=2 − both=1 = 2
    assert(s.length == 1 && math.abs(s.head - 0.5) < 1e-9)
  }
  test("attributeSimilarities equals Eq. 1 computed by hand over local triples") {
    // Seeded random triples: each (entity, attribute) has 0–2 values from a
    // small pool, so values repeat and many matches have values on one side
    // only; entity 0 of KB1 is in two initial matches.
    for (seed <- 1 to 4) {
      val rnd = new scala.util.Random(seed)
      val t1 = TestKBs.randomAttrs(rnd, 0 until 10, Seq("a", "b", "c")) ++ Seq((0L, "a", "red"), (0L, "a", "red"))
      val t2 = TestKBs.randomAttrs(rnd, 1000 until 1010, Seq("x", "y", "z"))
      val mIn = (0 until 10).map(i => (i.toLong, 1000L + i)) :+ ((0L, 1001L))

      val expected = for {
        a1 <- Seq("a", "b", "c"); a2 <- Seq("x", "y", "z")
        rows = mIn.map { case (u1, u2) => (TestKBs.values(t1, u1, a1), TestKBs.values(t2, u2, a2)) }
        both = rows.filter { case (v1, v2) => v1.nonEmpty && v2.nonEmpty }
        if both.nonEmpty
      } yield (a1, a2, both.map { case (v1, v2) => StringSim.simL(v1, v2) }.sum /
        (rows.count(_._1.nonEmpty) + rows.count(_._2.nonEmpty) - both.size))

      val got = AttributeMatcher.attributeSimilarities(spark,
        TestKBs.attrKB(spark, t1), TestKBs.attrKB(spark, t2), mIn.toDF("id1", "id2"), 0.9)
      assert(got.map(t => (t._1, t._2)) == expected.map(t => (t._1, t._2)), s"seed $seed")
      got.zip(expected).foreach { case (g, e) => assert(math.abs(g._3 - e._3) < 1e-12, s"seed $seed: $g vs $e") }
    }
  }
  test("empty initial matches yield no similarities") {
    val empty = Seq.empty[(Long, Long)].toDF("id1", "id2")
    assert(AttributeMatcher.attributeSimilarities(spark, kb1, kb2, empty, 0.9).isEmpty)
  }
  test("matchAttributes on empty sims is empty") {
    assert(AttributeMatcher.matchAttributes(Seq.empty, 0.4).isEmpty)
  }
  test("minSim filters weak matches") {
    val m = AttributeMatcher.matchAttributes(sims, minSim = 1.01)
    assert(m.isEmpty)
  }
  test("synthetic dy profile: 1:1 restores renamed gold attributes with high precision") {
    val pair = repro.synth.KBPairGen.generate(spark,
      repro.synth.KBPairGen.profile("dy", scale = 0.12))
    val cands = CandidateGen.candidates(pair.kb1, pair.kb2, 0.3)
    val s = AttributeMatcher.attributeSimilarities(spark, pair.kb1, pair.kb2,
      CandidateGen.initialMatches(cands), 0.9)
    val found = AttributeMatcher.matchAttributes(s, 0.4).map(t => (t._1, t._2)).toSet
    val gold = pair.goldAttrMatches.toSet
    val tp = found.intersect(gold).size.toDouble
    assert(found.nonEmpty)
    assert(tp / found.size > 0.7, s"precision ${tp / found.size} on $found")
  }
}
