package repro.core.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.kb.KB
import repro.util.StringSim

/** Candidate entity-match generation (§IV-B).
  *
  * Labels are normalised and tokenised; a token inverted-index self-join
  * (blocking) finds every pair sharing ≥ 1 token; token-set Jaccard prunes
  * pairs below `threshold` (paper default 0.3). The surviving pairs form the
  * candidate set M_c with the Jaccard similarity reused as the prior match
  * probability Pr[m_p]. Pairs with *identical* normalised labels are the
  * "initial" matches M_in used to bootstrap attribute/relationship matching.
  *
  * Output columns: [id1, id2, prior, exact] where `exact` marks M_in.
  */
object CandidateGen {

  /** [id, token, nTokens] — one row per (entity, distinct token). */
  private def tokenized(entities: DataFrame): DataFrame = {
    val toks = udf((label: String) => StringSim.normalizeTokens(label).distinct)
    entities
      .select(col("id"), toks(col("label")).as("toks"))
      .withColumn("nTokens", size(col("toks")))
      .withColumn("token", explode(col("toks")))
      .drop("toks")
  }

  /** Candidate pairs M_c with priors; `threshold` is the Jaccard cut-off. */
  def candidates(kb1: KB, kb2: KB, threshold: Double): DataFrame = {
    val t1 = tokenized(kb1.entities).toDF("id1", "n1", "token")
    val t2 = tokenized(kb2.entities).toDF("id2", "n2", "token")
    t1.join(t2, "token")
      .groupBy("id1", "id2")
      .agg(count(lit(1)).as("common"), first("n1").as("n1"), first("n2").as("n2"))
      .withColumn("prior", col("common") / (col("n1") + col("n2") - col("common")))
      .filter(col("prior") >= threshold)
      .withColumn("exact", col("common") === col("n1") && col("common") === col("n2"))
      .select("id1", "id2", "prior", "exact")
  }

  /** Initial entity matches M_in (exact normalised-label equality, §IV-C). */
  def initialMatches(candidates: DataFrame): DataFrame =
    candidates.filter(col("exact")).select("id1", "id2")
}
