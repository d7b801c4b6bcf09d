package repro.kb

import org.apache.spark.sql.{DataFrame, SparkSession}

/** A knowledge base K = (U, L, A, R, T) as three DataFrames (§III-A).
  *
  * - `entities`: [id: Long, label: String, etype: String] — U with rdfs:label
  *   values and (optional) type information; `etype` is only consumed by the
  *   baselines that need type partitions (HIKE/POWER/Corleone).
  * - `attrs`:    [subj: Long, attr: String, value: String] — T_attr ⊆ U×A×L.
  * - `rels`:     [subj: Long, rel: String, obj: Long]      — T_rel ⊆ U×R×U.
  */
final case class KB(entities: DataFrame, attrs: DataFrame, rels: DataFrame) {

  def numEntities: Long = entities.count()
  def numAttributes: Long = attrs.select("attr").distinct().count()
  def numRelationships: Long = rels.select("rel").distinct().count()

  def cache(): KB = KB(entities.cache(), attrs.cache(), rels.cache())
}

object KB {

  /** Build a KB from in-memory triples — the synthetic generator path. */
  def fromLocal(
      spark: SparkSession,
      entities: Seq[(Long, String, String)],
      attrs: Seq[(Long, String, String)],
      rels: Seq[(Long, String, Long)]): KB = {
    import spark.implicits._
    KB(
      entities.toDF("id", "label", "etype"),
      attrs.toDF("subj", "attr", "value"),
      rels.toDF("subj", "rel", "obj"),
    )
  }
}
