package repro.core.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.kb.KB
import repro.util.{Hungarian, StringSim}

/** Attribute matching over initial entity matches (§IV-C, Eq. 1).
  *
  * For every attribute pair (a1, a2), sim_A is the mean extended-Jaccard
  * similarity `sim_L` of their value sets over the initial matches M_in,
  * with the denominator counting every initial match where at least one side
  * has values. The final 1:1 attribute matching is the maximum-weight
  * bipartite assignment (Hungarian algorithm), mirroring the paper's global
  * 1:1 constraint; `matchAttributesNo11` is the ablation used in Table IV.
  */
object AttributeMatcher {

  /** (a1, a2, sim), sorted, for every attribute pair with nonzero two-sided
    * support. Spark sums sim_L and counts the supports; the driver divides.
    */
  def attributeSimilarities(
      spark: SparkSession, kb1: KB, kb2: KB, mIn: DataFrame,
      literalThreshold: Double): Seq[(String, String, Double)] = {
    val g1 = kb1.attrs.groupBy(col("subj").as("id1"), col("attr").as("a1"))
      .agg(collect_list("value").as("vals1"))
    val g2 = kb2.attrs.groupBy(col("subj").as("id2"), col("attr").as("a2"))
      .agg(collect_list("value").as("vals2"))
    val pairs = mIn.select("id1", "id2")
    val j1 = pairs.join(g1, "id1")        // (id1, id2, a1, vals1)
    val j2 = pairs.join(g2, "id2")        // (id1, id2, a2, vals2)

    val simL = udf((v1: Seq[String], v2: Seq[String]) =>
      StringSim.simL(v1, v2, literalThreshold))

    val both = j1.join(j2, Seq("id1", "id2"))
      .withColumn("s", simL(col("vals1"), col("vals2")))
      .groupBy("a1", "a2")
      .agg(sum("s"), count(lit(1)))
      .collect()

    // One-sided supports: the initial matches where that side has values.
    def support(j: DataFrame, a: String): Map[String, Long] =
      j.groupBy(a).count().collect().map(r => r.getString(0) -> r.getLong(1)).toMap
    val (n1, n2) = (support(j1, "a1"), support(j2, "a2"))
    both.toSeq.map { r =>
      val (a1, a2) = (r.getString(0), r.getString(1))
      (a1, a2, r.getDouble(2) / (n1(a1) + n2(a2) - r.getLong(3)))
    }.sortBy(t => (t._1, t._2))
  }

  /** Global 1:1 attribute matching M_at via the Hungarian algorithm. */
  def matchAttributes(sims: Seq[(String, String, Double)], minSim: Double): Seq[(String, String, Double)] = {
    val as1 = sims.map(_._1).distinct.sorted
    val as2 = sims.map(_._2).distinct.sorted
    val i1 = as1.zipWithIndex.toMap
    val i2 = as2.zipWithIndex.toMap
    val w = Array.ofDim[Double](as1.length, as2.length)
    for ((a1, a2, s) <- sims if s >= minSim) w(i1(a1))(i2(a2)) = s
    Hungarian.solve(w).map { case (i, j) => (as1(i), as2(j), w(i)(j)) }
  }

  /** Ablation without the 1:1 constraint: every pair with sim ≥ minSim. */
  def matchAttributesNo11(sims: Seq[(String, String, Double)], minSim: Double): Seq[(String, String, Double)] =
    sims.filter(_._3 >= minSim)
}
