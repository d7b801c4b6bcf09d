package repro.core.graph

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec, TestKBs}

class ERGraphBuilderSpec extends SparkSpec {
  import spark.implicits._

  private lazy val (kb1, kb2) = TestKBs.figure1(spark)
  private lazy val vertices = TestKBs.figure1Gold.toSeq.toDF("id1", "id2")
  private lazy val edges = ERGraphBuilder.edges(vertices, kb1, kb2).cache()

  test("edge exists when both relationship triples exist (Definition 2)") {
    val e = edges.filter($"srcId1" === TestKBs.Tim && $"dstId1" === TestKBs.Cradle).collect()
    assert(e.length == 1)
    assert(e(0).getString(e(0).fieldIndex("r1")) == "y_directed")
    assert(e(0).getString(e(0).fieldIndex("r2")) == "d_directed")
  }
  test("figure-1 fixture yields exactly the six aligned edges") {
    // 6 relationship triples per KB, perfectly aligned vertices ⇒ 6 edges
    assert(edges.count() == 6)
  }
  test("no edge to a vertex missing from the vertex set") {
    val fewer = vertices.filter($"id1" =!= TestKBs.Cradle)
    val e = ERGraphBuilder.edges(fewer, kb1, kb2)
    assert(e.filter($"dstId1" === TestKBs.Cradle).count() == 0)
  }
  test("cross-pair vertices induce cross edges") {
    // add the wrong-pair vertex (Cradle, Player'): Tim−directed→ both sides
    val extra = vertices.union(Seq((TestKBs.Cradle, TestKBs.Player + TestKBs.Off))
      .toDF("id1", "id2"))
    val e = ERGraphBuilder.edges(extra, kb1, kb2)
    assert(e.filter($"dstId1" === TestKBs.Cradle &&
      $"dstId2" === TestKBs.Player + TestKBs.Off).count() == 1)
  }
  test("edges agree with a DuckDB three-way-join oracle") {
    val sparkSide = edges.select(
      $"srcId1".cast("long"), $"srcId2".cast("long"),
      $"dstId1".cast("long"), $"dstId2".cast("long"), $"r1", $"r2")
    Oracle.assertEquivalent(
      sparkSide,
      """SELECT CAST(s.id1 AS BIGINT) AS srcId1, CAST(s.id2 AS BIGINT) AS srcId2,
        |       CAST(d.id1 AS BIGINT) AS dstId1, CAST(d.id2 AS BIGINT) AS dstId2,
        |       t1.rel AS r1, t2.rel AS r2
        |FROM v s
        |JOIN rels1 t1 ON s.id1 = t1.subj
        |JOIN rels2 t2 ON s.id2 = t2.subj
        |JOIN v d ON d.id1 = t1.obj AND d.id2 = t2.obj
        |""".stripMargin,
      "v" -> vertices, "rels1" -> kb1.rels, "rels2" -> kb2.rels)
  }
  /** The complement of `connectedVertices` within `vs`, as `Remp.prepare` forms it. */
  private def isolated(vs: DataFrame, e: DataFrame): DataFrame =
    vs.select("id1", "id2").except(ERGraphBuilder.connectedVertices(vs, e).select("id1", "id2"))

  test("connected and isolated vertices partition the vertex set") {
    val conn = ERGraphBuilder.connectedVertices(vertices, edges)
    val iso = isolated(vertices, edges)
    assert(conn.count() + iso.count() == vertices.count())
    assert(conn.intersect(iso).count() == 0)
  }
  test("isolated vertices have no incident edges") {
    val extra = vertices.union(Seq((99L, 199L)).toDF("id1", "id2"))
    val e = ERGraphBuilder.edges(extra, kb1, kb2)
    val iso = isolated(extra, e).collect().map(r => (r.getLong(0), r.getLong(1)))
    assert(iso.contains((99L, 199L)))
  }
}
