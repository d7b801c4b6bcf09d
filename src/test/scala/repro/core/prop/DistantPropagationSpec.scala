package repro.core.prop

import repro.{PropSpec, SparkSpec}
import repro.core.Remp
import repro.tables.Tables

class DistantPropagationSpec extends SparkSpec with PropSpec {
  import spark.implicits._

  private def edges(rows: (Long, Long, Long, Long, Double)*) =
    rows.toSeq.toDF("srcId1", "srcId2", "dstId1", "dstId2", "prob")
  private def pairs(ps: (Long, Long)*) = ps.toSeq.toDF("id1", "id2")

  private def collectDists(m: Map[(Long, Long), Seq[((Long, Long), Double)]]): Map[((Long, Long), (Long, Long)), Double] =
    m.iterator.flatMap { case (q, ps) => ps.iterator.map { case (p, prob) => ((q, p), prob) } }.toMap

  /** `inferred`'s lists as `inferredSets`' rows: flattened in (q, p) order. */
  private def flattened(m: Map[(Long, Long), Seq[((Long, Long), Double)]]) =
    m.toSeq.sortBy(_._1).flatMap { case ((q1, q2), ps) => ps.map { case ((p1, p2), prob) => (q1, q2, p1, p2, prob) } }

  private def rows(df: org.apache.spark.sql.DataFrame) =
    df.collect().map(r => (r.getLong(0), r.getLong(1), r.getLong(2), r.getLong(3), r.getDouble(4))).toSeq

  /** Doubles compared as their raw bits. */
  private def bits(rs: Seq[(Long, Long, Long, Long, Double)]) =
    rs.map(r => r.copy(_5 = java.lang.Double.doubleToRawLongBits(r._5)))

  /** A random graph over n vertices, with a chain of near-1 edges. */
  private def randomGraph(rnd: scala.util.Random, n: Int): Seq[(Int, Int, Double)] = {
    val random = Seq.fill(2 * n)((rnd.nextInt(n), rnd.nextInt(n), 0.85 + 0.15 * rnd.nextDouble()))
    val nearOne = (0 until n / 2).map(i => (i, i + 1, 0.99 + 0.01 * rnd.nextDouble()))
    (random ++ nearOne).filter(e => e._1 != e._2)
  }
  private def v(i: Int) = (i.toLong, 1000L + i)
  private def vertexEdges(es: Seq[(Int, Int, Double)]) =
    edges(es.map { case (s, t, p) => (v(s)._1, v(s)._2, v(t)._1, v(t)._2, p) }: _*)

  test("self distance is zero (prob 1)") {
    val out = DistantPropagation.inferred(edges(), pairs((1L, 101L)), 0.9)
    val m = collectDists(out)
    assert(math.abs(m(((1L, 101L), (1L, 101L))) - 1.0) < 1e-12)
  }
  test("one-hop propagation keeps the edge probability") {
    val out = DistantPropagation.inferred(
      edges((1L, 101L, 2L, 102L, 0.95)), pairs((1L, 101L)), 0.9)
    val m = collectDists(out)
    assert(math.abs(m(((1L, 101L), (2L, 102L))) - 0.95) < 1e-9)
  }
  test("two-hop product above tau is inferred (Eq. 10 chain)") {
    val out = DistantPropagation.inferred(
      edges((1L, 101L, 2L, 102L, 0.96), (2L, 102L, 3L, 103L, 0.96)),
      pairs((1L, 101L)), 0.9)
    val m = collectDists(out)
    assert(math.abs(m(((1L, 101L), (3L, 103L))) - 0.96 * 0.96) < 1e-9)
  }
  test("two-hop product below tau is excluded") {
    val out = DistantPropagation.inferred(
      edges((1L, 101L, 2L, 102L, 0.92), (2L, 102L, 3L, 103L, 0.92)),
      pairs((1L, 101L)), 0.9)
    val m = collectDists(out)
    assert(m.contains(((1L, 101L), (2L, 102L))))
    assert(!m.contains(((1L, 101L), (3L, 103L)))) // 0.8464 < 0.9
  }
  test("edges individually below tau never enter the graph") {
    val out = DistantPropagation.inferred(
      edges((1L, 101L, 2L, 102L, 0.5)), pairs((1L, 101L)), 0.9)
    assert(collectDists(out).size == 1) // only the self row
  }
  test("shortest path is chosen among alternatives") {
    val out = DistantPropagation.inferred(
      edges(
        (1L, 101L, 3L, 103L, 0.91),                          // direct, weaker
        (1L, 101L, 2L, 102L, 0.99), (2L, 102L, 3L, 103L, 0.99)), // via 2, stronger
      pairs((1L, 101L)), 0.9)
    val m = collectDists(out)
    assert(math.abs(m(((1L, 101L), (3L, 103L))) - 0.99 * 0.99) < 1e-9)
  }
  test("multi-source distances are computed per source") {
    val out = DistantPropagation.inferred(
      edges((1L, 101L, 2L, 102L, 0.95), (2L, 102L, 1L, 101L, 0.93)),
      pairs((1L, 101L), (2L, 102L)), 0.9)
    val m = collectDists(out)
    assert(math.abs(m(((1L, 101L), (2L, 102L))) - 0.95) < 1e-9)
    assert(math.abs(m(((2L, 102L), (1L, 101L))) - 0.93) < 1e-9)
  }
  test("cycles terminate (fixpoint convergence)") {
    val out = DistantPropagation.inferred(
      edges((1L, 101L, 2L, 102L, 0.99), (2L, 102L, 1L, 101L, 0.99)),
      pairs((1L, 101L)), 0.9)
    val m = collectDists(out)
    assert(math.abs(m(((1L, 101L), (1L, 101L))) - 1.0) < 1e-12) // self stays at dist 0
    assert(math.abs(m(((1L, 101L), (2L, 102L))) - 0.99) < 1e-9)
  }
  test("tau = 1 keeps only probability-1 reachability") {
    val out = DistantPropagation.inferred(
      edges((1L, 101L, 2L, 102L, 1.0), (2L, 102L, 3L, 103L, 0.99)),
      pairs((1L, 101L)), 1.0)
    val m = collectDists(out)
    assert(m.contains(((1L, 101L), (2L, 102L))))
    assert(!m.contains(((1L, 101L), (3L, 103L))))
  }
  test("inferred probabilities never exceed 1 nor fall below tau") {
    val out = DistantPropagation.inferred(
      edges((1L, 101L, 2L, 102L, 0.95), (2L, 102L, 3L, 103L, 0.97),
        (1L, 101L, 3L, 103L, 0.93)),
      pairs((1L, 101L), (2L, 102L), (3L, 103L)), 0.9)
    collectDists(out).values.foreach(p => assert(p >= 0.9 - 1e-9 && p <= 1.0 + 1e-12))
  }
  test("a detour through a stronger vertex reaches beyond it") {
    // q→a direct is 0.91, but q→b→a is 0.9801; only the detour keeps a→c above τ.
    val (q, a, b, c) = ((1L, 101L), (2L, 102L), (3L, 103L), (4L, 104L))
    def e(s: (Long, Long), d: (Long, Long), p: Double) = (s._1, s._2, d._1, d._2, p)
    val out = DistantPropagation.inferred(
      edges(e(q, a, 0.91), e(q, b, 0.99), e(b, a, 0.99), e(a, c, 0.95)), pairs(q), 0.9)
    val m = collectDists(out)
    assert(math.abs(m((q, a)) - 0.99 * 0.99) < 1e-9)
    assert(math.abs(m((q, c)) - 0.99 * 0.99 * 0.95) < 1e-9)
  }
  test("a long chain of near-1 edges is followed to its end") {
    val chain = (0 until 20).map(i => (i.toLong, 100L + i, i + 1L, 101L + i, 0.999))
    val m = collectDists(DistantPropagation.inferred(edges(chain: _*), pairs((0L, 100L)), 0.9))
    assert(m.size == 21)
    assert(math.abs(m(((0L, 100L), (20L, 120L))) - math.pow(0.999, 20)) < 1e-9)
  }
  test("inferred sets match a Floyd–Warshall reference on random graphs") {
    val tau = 0.9
    val zeta = -math.log(tau)
    forSeeds(10) { rnd =>
      val n = 15 + rnd.nextInt(16)
      val es = randomGraph(rnd, n)

      val d = Array.tabulate(n, n)((i, j) => if (i == j) 0.0 else Double.PositiveInfinity)
      for ((s, t, p) <- es if -math.log(p) <= zeta) d(s)(t) = math.min(d(s)(t), -math.log(p))
      for (k <- 0 until n; i <- 0 until n; j <- 0 until n)
        d(i)(j) = math.min(d(i)(j), d(i)(k) + d(k)(j))

      val sources = (0 until n).filter(_ % 3 != 0)
      val out = DistantPropagation.inferred(vertexEdges(es), sources.map(v).toDF("id1", "id2"), tau)
      assert(out.keySet == sources.map(v).toSet)
      for ((q, ps) <- out) {
        val ids = ps.map(_._1)
        assert(ids == ids.sorted && ids.distinct == ids, s"$q's list is not in pair order")
        assert(ps.contains((q, 1.0)), s"$q's list lacks (q, 1)")
      }
      val m = collectDists(out)
      for (i <- sources; j <- 0 until n) {
        val got = m.get((v(i), v(j)))
        if (d(i)(j) <= zeta - 1e-9)
          assert(got.exists(p => math.abs(p - math.exp(-d(i)(j))) < 1e-9), s"$i→$j: $got vs dist ${d(i)(j)}")
        else if (d(i)(j) > zeta + 1e-9)
          assert(got.isEmpty, s"$i→$j: $got but dist ${d(i)(j)} > ζ")
      }
    }
  }
  test("inferredSets' rows are inferred's lists flattened in (q, p) order") {
    forSeeds(10) { rnd =>
      val n = 15 + rnd.nextInt(16)
      val es = vertexEdges(randomGraph(rnd, n))
      val sources = (0 until n).filter(_ % 3 != 0).map(v).toDF("id1", "id2")
      val out = rows(DistantPropagation.inferredSets(spark, es, sources, 0.9))
      assert(bits(out) == bits(flattened(DistantPropagation.inferred(es, sources, 0.9))))
    }
  }
  test("inferredSets' rows are prepare's inferred lists flattened, on iimb") {
    val p = Tables.ctx(spark, "iimb", 0.25).prepared
    val sources = p.connected.toSeq.toDF("id1", "id2")
    val out = rows(DistantPropagation.inferredSets(spark, p.probEdges, sources, Remp.Config().tau))
    assert(out.nonEmpty)
    assert(bits(out) == bits(flattened(p.inferred)))
  }
}
