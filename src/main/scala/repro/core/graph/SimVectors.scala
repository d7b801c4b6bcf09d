package repro.core.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.kb.KB
import repro.util.StringSim

/** Similarity-vector construction (§IV-D).
  *
  * For every candidate pair, the similarity vector has one component per
  * attribute match in M_at: component i is sim_L between the pair's value
  * sets on the i-th matched attribute pair (0 when either side is empty).
  *
  * Output columns: [id1, id2, prior, exact, vec: array<double>].
  */
object SimVectors {

  def withVectors(
      spark: SparkSession,
      candidates: DataFrame,
      kb1: KB, kb2: KB,
      attrMatches: Seq[(String, String, Double)],
      literalThreshold: Double): DataFrame = {
    val dim = attrMatches.size
    if (dim == 0) return candidates.withColumn("vec", array())

    // [id, pos, vals]: an attribute in several matches (a no-1:1 list) fills
    // each of its positions.
    def valueLists(kb: KB, attrs: Seq[String], side: Int): DataFrame =
      kb.attrs.select(col("subj").as(s"id$side"),
          explode(element_at(typedLit(attrs.zipWithIndex.groupMap(_._1)(_._2)), col("attr"))).as("pos"),
          col("value"))
        .groupBy(s"id$side", "pos").agg(collect_list("value").as(s"vals$side"))
    val g1 = valueLists(kb1, attrMatches.map(_._1), 1)
    val g2 = valueLists(kb2, attrMatches.map(_._2), 2)

    val simL = udf((v1: Seq[String], v2: Seq[String]) =>
      StringSim.simL(v1, v2, literalThreshold))

    // Per (pair, pos) similarity; pairs missing a pos get 0 via the final map.
    val comps = candidates.select("id1", "id2")
      .join(g1, "id1").join(g2, Seq("id2", "pos"))
      .withColumn("s", simL(col("vals1"), col("vals2")))
      .groupBy("id1", "id2")
      .agg(collect_list(struct(col("pos"), col("s"))).as("comps"))

    val toVec = udf((comps: Seq[org.apache.spark.sql.Row]) => {
      val v = new Array[Double](dim)
      comps.foreach(r => v(r.getInt(0)) = r.getDouble(1))
      v
    })
    candidates.join(comps, Seq("id1", "id2"), "left")
      .withColumn("vec", toVec(coalesce(col("comps"), array())))
      .drop("comps")
  }
}
