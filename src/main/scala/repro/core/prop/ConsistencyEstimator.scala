package repro.core.prop

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.kb.KB

/** Consistency estimation between relationships (§V-A, Eq. 3–5).
  *
  * For a relationship pair (r1, r2), ε₁ is the probability that a value of r1
  * under a matched subject has a matched counterpart among the values of r2
  * (and symmetrically ε₂).
  *
  * Note on Eq. 5: taken literally, the joint maximisation over (ε₁, ε₂, L)
  * is degenerate — every per-pair likelihood (a product of two binomial
  * pmfs) attains 1 at L = 0, ε → 0, so the global argmax is always the
  * boundary "no values ever match". The intended interior solution requires
  * anchoring L; we anchor it at the *observed* match count: for each initial
  * match (u1, u2) ∈ M_in, L is the number of value pairs in
  * N_{u1}^{r1} × N_{u2}^{r2} that are themselves initial matches. With L
  * observed, the binomial MLE has the closed form ε_i = Σ L / Σ n_i. This is
  * the same information the paper's estimator consumes (M_in and the value
  * distributions) and matches the semantics of Eq. 3 directly (see
  * DESIGN.md §2).
  */
object ConsistencyEstimator {

  /** ε₁, ε₂ ∈ (0, 1): at 0 or 1, Eq. 9's ζ is 0 or ∞ and its marginals NaN. */
  final case class Consistency(eps1: Double, eps2: Double) {
    require(eps1 > 0 && eps1 < 1 && eps2 > 0 && eps2 < 1, s"eps must lie in (0, 1), got ($eps1, $eps2)")
  }

  val Floor = 0.01

  /** Binomial MLE of (ε₁, ε₂) for every relationship pair with at least one
    * observed value match: ε_i = Σ L / Σ n_i, clamped into
    * [`Floor`, 1 − `Floor`]. Spark counts the sums; the driver divides.
    *
    * `valueMatches` decides which value pairs count as matched. Defaulting to
    * M_in alone biases ε down (the paper's latent-L MLE credits likely
    * matches that merely lack exact labels), so callers with a candidate set
    * should pass the candidates above a prior threshold — Remp.prepare does.
    */
  def estimate(spark: SparkSession, kb1: KB, kb2: KB, mIn: DataFrame,
               valueMatches: Option[DataFrame] = None): Map[(String, String), Consistency] = {
    val subj = mIn.select("id1", "id2")
    // One row per initial match (u1, u2) and value of u1 (resp. u2), so the
    // rows per relationship sum n_i over M_in.
    val j1 = subj.join(kb1.rels.select(col("subj").as("id1"), col("rel").as("r1"), col("obj").as("v1")), "id1")
    val j2 = subj.join(kb2.rels.select(col("subj").as("id2"), col("rel").as("r2"), col("obj").as("v2")), "id2")
    val valuePairs = valueMatches.getOrElse(mIn).select(col("id1").as("v1"), col("id2").as("v2"))
    val sumL = j1.join(j2, Seq("id1", "id2")).join(valuePairs, Seq("v1", "v2"))
      .groupBy("r1", "r2").count().collect()
    def sumN(j: DataFrame, r: String): Map[String, Long] =
      j.groupBy(r).count().collect().map(row => row.getString(0) -> row.getLong(1)).toMap
    val (sumN1, sumN2) = (sumN(j1, "r1"), sumN(j2, "r2"))

    // Every observed (r1, r2) has a row in j1 and in j2, so both sums are ≥ 1.
    def clamp(x: Double): Double = math.min(1.0 - Floor, math.max(Floor, x))
    sumL.map { row =>
      val (r1, r2) = (row.getString(0), row.getString(1))
      val l = row.getLong(2).toDouble
      (r1, r2) -> Consistency(clamp(l / sumN1(r1)), clamp(l / sumN2(r2)))
    }.toMap
  }
}
