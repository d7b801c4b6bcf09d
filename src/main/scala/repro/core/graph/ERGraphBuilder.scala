package repro.core.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.kb.KB

/** ER graph construction (Definition 2).
  *
  * Vertices are the retained candidate pairs; there is an edge from vertex
  * (u1, u2) to (u1', u2') labelled (r1, r2) iff (u1, r1, u1') ∈ T₁ and
  * (u2, r2, u2') ∈ T₂ — i.e. a three-way join of the vertex set with both
  * KBs' relationship tables on both endpoints.
  *
  * Edge columns: [srcId1, srcId2, dstId1, dstId2, r1, r2].
  */
object ERGraphBuilder {

  def edges(vertices: DataFrame, kb1: KB, kb2: KB): DataFrame = {
    val v = vertices.select("id1", "id2")
    val t1 = kb1.rels.select(col("subj").as("srcId1"), col("rel").as("r1"), col("obj").as("dstId1"))
    val t2 = kb2.rels.select(col("subj").as("srcId2"), col("rel").as("r2"), col("obj").as("dstId2"))
    val src = v.select(col("id1").as("srcId1"), col("id2").as("srcId2"))
    val dst = v.select(col("id1").as("dstId1"), col("id2").as("dstId2"))
    src
      .join(t1, "srcId1")
      .join(t2, "srcId2")
      .join(dst, Seq("dstId1", "dstId2"))
      .select("srcId1", "srcId2", "dstId1", "dstId2", "r1", "r2")
  }

  /** Vertices of the graph that touch at least one edge. The rest are the
    * isolated pairs, which the classifier handles (§VII-B).
    */
  def connectedVertices(vertices: DataFrame, edges: DataFrame): DataFrame = {
    val touched = edges.select(col("srcId1").as("id1"), col("srcId2").as("id2"))
      .union(edges.select(col("dstId1").as("id1"), col("dstId2").as("id2")))
      .distinct()
    vertices.join(touched, Seq("id1", "id2"), "left_semi")
  }
}
