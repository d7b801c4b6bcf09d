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
  * DESIGN.md §2). `bestLTerm` retains the exact inner maximisation of the
  * paper's piecewise analysis and is unit-tested for reference.
  */
object ConsistencyEstimator {

  final case class Consistency(eps1: Double, eps2: Double)

  /** Histogram of value-set sizes over initial matches: for each initial
    * match (u1, u2) and each (r1, r2) that u1 and u2 both have, the sizes
    * n1 = |N_{u1}^{r1}| and n2 = |N_{u2}^{r2}|. Pairs where either side lacks
    * its relationship are not counted.
    * Output: [r1, r2, n1, n2, cnt].
    */
  def degreeHistogram(spark: SparkSession, kb1: KB, kb2: KB, mIn: DataFrame): DataFrame = {
    val d1 = kb1.rels.groupBy(col("subj").as("id1"), col("rel").as("r1"))
      .agg(count(lit(1)).as("n1"))
    val d2 = kb2.rels.groupBy(col("subj").as("id2"), col("rel").as("r2"))
      .agg(count(lit(1)).as("n2"))
    val p = mIn.select("id1", "id2")
    val j1 = p.join(d1, "id1")          // (id1, id2, r1, n1)
    val j2 = p.join(d2, "id2")          // (id1, id2, r2, n2)
    j1.join(j2, Seq("id1", "id2"))
      .groupBy("r1", "r2", "n1", "n2").agg(count(lit(1)).as("cnt"))
  }

  /** Totals per single relationship over M_in: [r, pairs, sumN]. */
  private def sideTotals(rels: DataFrame, mIn: DataFrame, mInId: String): DataFrame = {
    val d = rels.groupBy(col("subj").as(mInId), col("rel").as("r"))
      .agg(count(lit(1)).as("n"))
    mIn.select(mInId).join(d, mInId)
      .groupBy("r").agg(count(lit(1)).as("pairs"), sum("n").as("sumN"))
  }

  private def logC(n: Int, k: Int): Double = {
    var s = 0.0
    var i = 0
    while (i < k) { s += math.log((n - i).toDouble / (k - i)); i += 1 }
    s
  }

  /** Inner max over L of the per-pair log-likelihood term at (ε₁, ε₂). */
  private[prop] def bestLTerm(n1: Int, n2: Int, logZeta: Double): Double = {
    val lm = math.min(n1, n2)
    var best = 0.0 // L = 0 term is 0
    var l = 1
    while (l <= lm) {
      val t = logC(n1, l) + logC(n2, l) + l * logZeta
      if (t > best) best = t
      l += 1
    }
    best
  }

  /** Observed match counts: [r1, r2, sumL] where sumL sums, over initial
    * matches, the number of value pairs in N_{u1}^{r1} × N_{u2}^{r2} that are
    * themselves likely matches (`valuePairs`).
    */
  private def observedL(kb1: KB, kb2: KB, mIn: DataFrame, valueMatches: DataFrame): DataFrame = {
    val subj = mIn.select(col("id1"), col("id2"))
    val valuePairs = valueMatches.select(col("id1").as("v1"), col("id2").as("v2"))
    subj
      .join(kb1.rels.select(col("subj").as("id1"), col("rel").as("r1"), col("obj").as("v1")), "id1")
      .join(kb2.rels.select(col("subj").as("id2"), col("rel").as("r2"), col("obj").as("v2")), "id2")
      .join(valuePairs, Seq("v1", "v2"))
      .groupBy("r1", "r2")
      .agg(count(lit(1)).as("sumL"))
  }

  /** Binomial MLE of (ε₁, ε₂) for every relationship pair with at least one
    * observed value match: ε_i = Σ L / Σ n_i, clamped into
    * [`floor`, 1 − `floor`].
    *
    * `valueMatches` decides which value pairs count as matched. Defaulting to
    * M_in alone biases ε down (the paper's latent-L MLE credits likely
    * matches that merely lack exact labels), so callers with a candidate set
    * should pass the candidates above a prior threshold — Remp.prepare does.
    */
  def estimate(spark: SparkSession, kb1: KB, kb2: KB, mIn: DataFrame,
               valueMatches: Option[DataFrame] = None,
               floor: Double = 0.01): Map[(String, String), Consistency] = {
    val obs = observedL(kb1, kb2, mIn, valueMatches.getOrElse(mIn)).collect()
      .map(r => (r.getString(0), r.getString(1), r.getLong(2)))
    val s1 = sideTotals(kb1.rels, mIn, "id1").collect()
      .map(r => r.getString(0) -> (r.getLong(1), r.getLong(2))).toMap
    val s2 = sideTotals(kb2.rels, mIn, "id2").collect()
      .map(r => r.getString(0) -> (r.getLong(1), r.getLong(2))).toMap

    def clamp(x: Double): Double = math.min(1.0 - floor, math.max(floor, x))
    obs.map { case (r1, r2, sumL) =>
      val n1 = s1.get(r1).map(_._2.toDouble).getOrElse(0.0)
      val n2 = s2.get(r2).map(_._2.toDouble).getOrElse(0.0)
      val e1 = if (n1 > 0) clamp(sumL / n1) else floor
      val e2 = if (n2 > 0) clamp(sumL / n2) else floor
      (r1, r2) -> Consistency(e1, e2)
    }.toMap
  }
}
