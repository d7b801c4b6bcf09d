package repro.kb

import repro.{Oracle, SparkSpec, TestKBs}

class KBSpec extends SparkSpec {

  private lazy val (kb1, _) = TestKBs.figure1(spark)

  test("entity count") { assert(kb1.numEntities == 7) }
  test("attribute count") { assert(kb1.numAttributes == 3) }
  test("relationship count") { assert(kb1.numRelationships == 3) }
  test("no isolated entities in the figure-1 fixture") {
    assert(TestKBs.isolatedEntities(kb1).count() == 0)
  }
  test("isolated entities are those in no relationship triple") {
    val kb = KB.fromLocal(spark,
      Seq((1L, "a", "t"), (2L, "b", "t"), (3L, "c", "t")),
      Seq.empty,
      Seq((1L, "r", 2L)))
    assert(TestKBs.isolatedEntities(kb).collect().map(_.getLong(0)).toSet == Set(3L))
  }
  test("isolated entities agree with a DuckDB anti-join oracle") {
    val iso = TestKBs.isolatedEntities(kb1).select("id")
    Oracle.assertEquivalent(
      iso,
      """SELECT id FROM entities e
        |WHERE NOT EXISTS (SELECT 1 FROM rels r WHERE r.subj = e.id OR r.obj = e.id)
        |""".stripMargin,
      "entities" -> kb1.entities, "rels" -> kb1.rels)
  }
  test("cache returns an equivalent KB") {
    val c = kb1.cache()
    assert(c.numEntities == kb1.numEntities)
  }
}
