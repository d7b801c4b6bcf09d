package repro.synth

import repro.{SparkSpec, TestKBs}
import org.apache.spark.sql.functions._

class KBPairGenSpec extends SparkSpec {
  import KBPairGen._

  private lazy val iimb = generate(spark, profile("iimb", scale = 0.3))
  private lazy val dy = generate(spark, profile("dy", scale = 0.12))

  test("unknown profile is rejected") {
    intercept[IllegalArgumentException] { profile("nope") }
  }
  test("all four profiles construct") {
    Seq("iimb", "da", "iy", "dy").foreach(p => assert(profile(p).name == p))
  }
  test("generation is deterministic in the seed") {
    val a = generate(spark, profile("da", scale = 0.1, seed = 3))
    val b = generate(spark, profile("da", scale = 0.1, seed = 3))
    assert(a.kb1.entities.collect().toSet == b.kb1.entities.collect().toSet)
    assert(a.kb2.attrs.collect().toSet == b.kb2.attrs.collect().toSet)
    assert(a.gold.collect().toSet == b.gold.collect().toSet)
  }
  test("different seeds give different data") {
    val a = generate(spark, profile("da", scale = 0.1, seed = 3))
    val b = generate(spark, profile("da", scale = 0.1, seed = 4))
    assert(a.kb1.entities.collect().toSet != b.kb1.entities.collect().toSet)
  }
  test("gold matches reference existing entities on both sides") {
    val g = iimb.gold
    assert(g.join(iimb.kb1.entities, g("id1") === iimb.kb1.entities("id"), "left_anti").count() == 0)
    assert(g.join(iimb.kb2.entities, g("id2") === iimb.kb2.entities("id"), "left_anti").count() == 0)
  }
  test("gold matches pair each world object with its offset copy") {
    iimb.gold.collect().foreach(r => assert(r.getLong(1) == r.getLong(0) + Offset2))
  }
  test("iimb has full overlap") {
    assert(iimb.gold.count() == iimb.kb1.numEntities)
    assert(iimb.gold.count() == iimb.kb2.numEntities)
  }
  test("iimb attribute and relationship vocabularies are symmetric (12/12, 15/15)") {
    assert(iimb.kb1.numAttributes == 12 && iimb.kb2.numAttributes == 12)
    assert(iimb.kb1.numRelationships == 15 && iimb.kb2.numRelationships == 15)
  }
  test("dy vocabularies are asymmetric like DBpedia vs YAGO") {
    assert(dy.kb1.numAttributes > dy.kb2.numAttributes)
    assert(dy.kb1.numRelationships > dy.kb2.numRelationships)
  }
  test("dy has a large isolated-entity fraction") {
    val iso = TestKBs.isolatedEntities(dy.kb1).count().toDouble / dy.kb1.numEntities
    assert(iso > 0.3, s"isolated fraction $iso")
  }
  test("iimb has a small isolated-entity fraction") {
    val iso = TestKBs.isolatedEntities(iimb.kb1).count().toDouble / iimb.kb1.numEntities
    assert(iso < 0.15, s"isolated fraction $iso")
  }
  test("relationship triples reference entities of the same KB") {
    val e2 = dy.kb2.entities.select(col("id"))
    val bad = dy.kb2.rels.join(e2, dy.kb2.rels("subj") === e2("id"), "left_anti").count() +
      dy.kb2.rels.join(e2, dy.kb2.rels("obj") === e2("id"), "left_anti").count()
    assert(bad == 0)
  }
  test("gold attribute matches exist in both attribute vocabularies") {
    val a1 = dy.kb1.attrs.select("attr").distinct().collect().map(_.getString(0)).toSet
    val a2 = dy.kb2.attrs.select("attr").distinct().collect().map(_.getString(0)).toSet
    // attrDrop can remove a rare attribute entirely at tiny scale; most remain
    val present = dy.goldAttrMatches.count { case (x, y) => a1(x) && a2(y) }
    assert(present >= dy.goldAttrMatches.size - 2)
  }
  test("most unperturbed labels agree across KBs (exact-match bootstrap)") {
    val l1 = iimb.kb1.entities.select(col("id").as("w"), col("label").as("lab1"))
    val l2 = iimb.kb2.entities.select((col("id") - Offset2).as("w"), col("label").as("lab2"))
    val joined = l1.join(l2, "w")
    val same = joined.filter(col("lab1") === col("lab2")).count().toDouble
    assert(same / joined.count() > 0.6)
  }
  test("scale shrinks entity counts") {
    val small = generate(spark, profile("iimb", scale = 0.15))
    assert(small.kb1.numEntities < iimb.kb1.numEntities)
  }
}
