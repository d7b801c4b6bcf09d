package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.kb.KB

/** Tiny handcrafted KB pair modelled on the paper's Figure 1 (YAGO/DBpedia
  * fragment: persons, movies, cities), KB2 ids being KB1 ids + 100; and
  * helpers that build other small KBs for tests.
  */
object TestKBs {
  val Joan = 1L; val John = 2L; val Tim = 3L
  val Cradle = 4L; val Player = 5L
  val NYC = 6L; val Evanston = 7L
  val Off = 100L

  def figure1(spark: SparkSession): (KB, KB) = {
    val ents1 = Seq(
      (Joan, "joan crawford", "person"),
      (John, "john cromwell", "person"),
      (Tim, "tim burton", "person"),
      (Cradle, "cradle song", "movie"),
      (Player, "the player", "movie"),
      (NYC, "new york city", "city"),
      (Evanston, "evanston", "city"))
    val ents2 = ents1.map { case (id, l, t) => (id + Off, l, t) }
    val attrs1 = Seq(
      (Joan, "y_born", "1908"), (John, "y_born", "1887"), (Tim, "y_born", "1958"),
      (Cradle, "y_year", "1933"), (Player, "y_year", "1992"),
      (NYC, "y_pop", "8400000"), (Evanston, "y_pop", "75000"))
    val attrs2 = attrs1.map { case (id, a, v) => (id + Off, a.replace("y_", "d_"), v) }
    val rels1 = Seq(
      (Tim, "y_directed", Cradle), (Tim, "y_directed", Player),
      (Joan, "y_actedIn", Cradle), (John, "y_actedIn", Player),
      (Joan, "y_wasBornIn", NYC), (John, "y_wasBornIn", Evanston))
    val rels2 = rels1.map { case (s, r, o) => (s + Off, r.replace("y_", "d_"), o + Off) }
    (KB.fromLocal(spark, ents1, attrs1, rels1),
      KB.fromLocal(spark, ents2, attrs2, rels2))
  }

  /** All 7 gold matches of the Figure-1 fixture. */
  val figure1Gold: Set[(Long, Long)] =
    (1L to 7L).map(i => (i, i + Off)).toSet

  /** Entities of `kb` that occur in no relationship triple (isolated; §VII-B). */
  def isolatedEntities(kb: KB): DataFrame = {
    val used = kb.rels.select(col("subj").as("id"))
      .union(kb.rels.select(col("obj").as("id")))
      .distinct()
    kb.entities.join(used, Seq("id"), "left_anti")
  }

  /** Seeded attribute triples: each (entity, attribute) gets 0–2 values from
    * a small pool, so values repeat and many entities lack an attribute.
    */
  def randomAttrs(rnd: scala.util.Random, subjs: Range, attrs: Seq[String]): Seq[(Long, String, String)] = {
    val pool = Seq("1900", "1901", "1950", "red car", "red", "blue car", "blue", "x y z")
    for (u <- subjs; a <- attrs; _ <- 0 until rnd.nextInt(3)) yield (u.toLong, a, pool(rnd.nextInt(pool.size)))
  }

  /** The values of `a` on entity `u`, in triple order. */
  def values(t: Seq[(Long, String, String)], u: Long, a: String): Seq[String] =
    t.collect { case (`u`, `a`, v) => v }

  /** A KB with the attribute triples `t` and no relationships. */
  def attrKB(spark: SparkSession, t: Seq[(Long, String, String)]): KB =
    KB.fromLocal(spark, t.map(_._1).distinct.map(u => (u, s"e$u", "t")), t, Seq.empty)
}
