package repro.core.graph

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestKBs}
import repro.util.StringSim

class CandidateGenSpec extends SparkSpec {

  private lazy val (kb1, kb2) = TestKBs.figure1(spark)
  private lazy val cands = CandidateGen.candidates(kb1, kb2, 0.3).cache()

  test("every identical-label pair is found with prior 1") {
    val exact = cands.filter(col("prior") === 1.0)
    assert(exact.count() == 7)
    exact.collect().foreach(r => assert(r.getLong(1) == r.getLong(0) + TestKBs.Off))
  }
  test("exact flag marks precisely the identical-normalised-label pairs") {
    cands.collect().foreach { r =>
      assert(r.getBoolean(r.fieldIndex("exact")) == (r.getDouble(r.fieldIndex("prior")) == 1.0))
    }
  }
  test("initial matches equal the exact candidates") {
    assert(CandidateGen.initialMatches(cands).count() == 7)
  }
  test("pairs below the Jaccard threshold are pruned") {
    // "joan crawford" vs "john cromwell" share no normalised token
    assert(cands.filter(col("id1") === TestKBs.Joan &&
      col("id2") === TestKBs.John + TestKBs.Off).count() == 0)
  }
  test("threshold 0 keeps any token-sharing pair") {
    val all = CandidateGen.candidates(kb1, kb2, 1e-9)
    assert(all.count() >= cands.count())
  }
  test("priors lie in (0, 1]") {
    cands.collect().foreach { r =>
      val p = r.getDouble(r.fieldIndex("prior"))
      assert(p > 0.0 && p <= 1.0)
    }
  }
  test("prior equals the token-set Jaccard computed independently") {
    val labels1 = kb1.entities.collect().map(r => r.getLong(0) -> r.getString(1)).toMap
    val labels2 = kb2.entities.collect().map(r => r.getLong(0) -> r.getString(1)).toMap
    cands.collect().foreach { r =>
      val expect = StringSim.jaccardTokens(labels1(r.getLong(0)), labels2(r.getLong(1)))
      assert(math.abs(r.getDouble(r.fieldIndex("prior")) - expect) < 1e-9)
    }
  }
  test("candidate generation agrees with a DuckDB token-join oracle") {
    import spark.implicits._
    def tokens(kb: repro.kb.KB) = kb.entities.collect().flatMap { r =>
      val toks = StringSim.normalizeTokens(r.getString(1)).distinct
      toks.map(t => (r.getLong(0), t, toks.length))
    }.toSeq
    val tok1 = tokens(kb1).toDF("id", "token", "n")
    val tok2 = tokens(kb2).toDF("id", "token", "n")
    val sparkSide = cands.select($"id1", $"id2", round($"prior", 6).as("prior"))
    Oracle.assertEquivalent(
      sparkSide,
      """SELECT CAST(t1.id AS BIGINT) AS id1, CAST(t2.id AS BIGINT) AS id2,
        |       ROUND(CAST(COUNT(*) AS DOUBLE) /
        |             (CAST(ANY_VALUE(t1.n) AS INT) + CAST(ANY_VALUE(t2.n) AS INT) - COUNT(*)), 6) AS prior
        |FROM tok1 t1 JOIN tok2 t2 ON t1.token = t2.token
        |GROUP BY t1.id, t2.id
        |HAVING CAST(COUNT(*) AS DOUBLE) /
        |       (CAST(ANY_VALUE(t1.n) AS INT) + CAST(ANY_VALUE(t2.n) AS INT) - COUNT(*)) >= 0.3
        |""".stripMargin,
      "tok1" -> tok1, "tok2" -> tok2)
  }
  test("synthetic profile: candidates cover most gold matches") {
    val pair = repro.synth.KBPairGen.generate(spark,
      repro.synth.KBPairGen.profile("iimb", scale = 0.3))
    val c = CandidateGen.candidates(pair.kb1, pair.kb2, 0.3).select("id1", "id2").collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    val pc = repro.core.Metrics.pairCompleteness(c, repro.core.Remp.goldSet(pair.gold))
    assert(pc > 0.9, s"pair completeness $pc")
  }
}
