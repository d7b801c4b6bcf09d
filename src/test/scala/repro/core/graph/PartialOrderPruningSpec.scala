package repro.core.graph

import repro.SparkSpec

class PartialOrderPruningSpec extends SparkSpec {
  import spark.implicits._

  private def df(rows: Seq[(Long, Long, Double, Boolean, Seq[Double])]) =
    rows.toDF("id1", "id2", "prior", "exact", "vec")

  // --- strictlyDominates ---
  test("strict dominance requires one strict component") {
    import PartialOrderPruning.strictlyDominates
    assert(strictlyDominates(Seq(0.9, 0.5), Seq(0.8, 0.5)))
    assert(!strictlyDominates(Seq(0.8, 0.5), Seq(0.8, 0.5))) // equal
    assert(!strictlyDominates(Seq(0.9, 0.4), Seq(0.8, 0.5))) // incomparable
    assert(!strictlyDominates(Seq(0.7, 0.5), Seq(0.8, 0.5)))
  }
  test("dominance on empty vectors is false") {
    assert(!PartialOrderPruning.strictlyDominates(Seq.empty, Seq.empty))
  }

  // --- pruning ---
  test("blocks of size ≤ k are never pruned") {
    val rows = (1 to 3).map(i => (1L, 100L + i, 0.5, false, Seq(i / 10.0)))
    assert(PartialOrderPruning.prune(spark, df(rows), k = 4).count() == 3)
  }
  test("pairs ranked ≥ k in a block are pruned") {
    // one KB1 entity with 6 counterparts on a total order: keep top-4
    val rows = (1 to 6).map(i => (1L, 100L + i, 0.5, false, Seq(i / 10.0)))
    val kept = PartialOrderPruning.prune(spark, df(rows), k = 4)
    assert(kept.count() == 4)
    val keptIds = kept.select("id2").collect().map(_.getLong(0)).toSet
    assert(keptIds == Set(103L, 104L, 105L, 106L)) // the 4 largest vectors
  }
  test("incomparable vectors all have rank 0 and survive") {
    val rows = (1 to 6).map(i => (1L, 100L + i, 0.5, false, Seq(i / 10.0, (7 - i) / 10.0)))
    assert(PartialOrderPruning.prune(spark, df(rows), k = 2).count() == 6)
  }
  test("rank is the max over both side blocks") {
    // (1, 101) dominated 4× in the id2=201 block but unique in its id1 block
    val rows =
      (1 to 5).map(i => (i.toLong, 201L, 0.5, false, Seq(i / 10.0))) ++
        Seq((1L, 101L, 0.5, false, Seq(0.05)))
    val kept = PartialOrderPruning.prune(spark, df(rows), k = 4).collect()
    val keptPairs = kept.map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(!keptPairs.contains((1L, 201L))) // rank2 = 4 ≥ k
    assert(keptPairs.contains((1L, 101L)))
  }
  test("a pair pruned in both of its blocks is dropped once") {
    // (1, 101) has the least vector of its id1 block and of its id2 block,
    // each of 5 pairs, so both blocks emit it.
    val rows = Seq((1L, 101L, 0.5, false, Seq(0.05))) ++
      (2 to 5).map(i => (1L, 100L + i, 0.5, false, Seq(i / 10.0))) ++
      (2 to 5).map(i => (i.toLong, 101L, 0.5, false, Seq(i / 10.0)))
    val in = df(rows)
    val out = PartialOrderPruning.prune(spark, in, k = 4)
    assert(out.schema == in.schema)
    val kept = out.collect().toSeq.map(r =>
      (r.getLong(0), r.getLong(1), r.getDouble(2), r.getBoolean(3), r.getSeq[Double](4)))
    assert(kept.sortBy(p => (p._1, p._2)) == rows.tail.sortBy(p => (p._1, p._2)))
  }
  test("pruning is idempotent") {
    val rows = (1 to 8).map(i => (1L, 100L + i, 0.5, false, Seq(i / 10.0, i % 3 / 3.0)))
    val once = PartialOrderPruning.prune(spark, df(rows), k = 3)
    val twice = PartialOrderPruning.prune(spark, once, k = 3)
    assert(once.collect().map(_.getLong(1)).toSet == twice.collect().map(_.getLong(1)).toSet)
  }
  test("k=1 keeps only undominated pairs per block") {
    val rows = (1 to 4).map(i => (1L, 100L + i, 0.5, false, Seq(i / 10.0)))
    val kept = PartialOrderPruning.prune(spark, df(rows), k = 1)
    assert(kept.collect().map(_.getLong(1)).toSet == Set(104L))
  }
  test("extra columns are preserved through pruning") {
    val rows = Seq((1L, 101L, 0.7, true, Seq(0.5)))
    val out = PartialOrderPruning.prune(spark, df(rows), k = 4)
    val r = out.collect().head
    assert(r.getDouble(r.fieldIndex("prior")) == 0.7)
    assert(r.getBoolean(r.fieldIndex("exact")))
  }
  test("prune keeps exactly the pairs a brute-force rank filter keeps") {
    // Random blocks over a coarse grid, so vectors tie and repeat.
    for (seed <- 1 to 4; k <- Seq(1, 2, 4)) {
      val rnd = new scala.util.Random(seed)
      val rows = for (i <- 1L to 5L; j <- 101L to 107L if rnd.nextDouble() < 0.6)
        yield (i, j, rnd.nextDouble(), rnd.nextBoolean(), Seq.fill(2)(rnd.nextInt(3) / 2.0))
      def rank(block: Seq[(Long, Long, Double, Boolean, Seq[Double])], v: Seq[Double]) =
        block.count(o => PartialOrderPruning.strictlyDominates(o._5, v))
      val expected = rows.filter { r =>
        math.max(rank(rows.filter(_._1 == r._1), r._5), rank(rows.filter(_._2 == r._2), r._5)) < k
      }.map(r => (r._1, r._2, r._3, r._4)).toSet
      val kept = PartialOrderPruning.prune(spark, df(rows), k).collect()
        .map(r => (r.getLong(0), r.getLong(1), r.getDouble(2), r.getBoolean(3))).toSet
      assert(kept == expected, s"seed $seed, k $k")
    }
  }
  test("pair completeness stays high on a synthetic profile") {
    val pair = repro.synth.KBPairGen.generate(spark,
      repro.synth.KBPairGen.profile("da", scale = 0.15))
    val cands = CandidateGen.candidates(pair.kb1, pair.kb2, 0.3).cache()
    val mIn = CandidateGen.initialMatches(cands)
    val sims = AttributeMatcher.attributeSimilarities(spark, pair.kb1, pair.kb2, mIn, 0.9)
    val mAt = AttributeMatcher.matchAttributes(sims, 0.4)
    val withVec = SimVectors.withVectors(spark, cands, pair.kb1, pair.kb2, mAt, 0.9)
    val pruned = PartialOrderPruning.prune(spark, withVec, k = 4)
    val gold = repro.core.Remp.goldSet(pair.gold)
    def pairs(df: org.apache.spark.sql.DataFrame) =
      df.select("id1", "id2").collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    val pcBefore = repro.core.Metrics.pairCompleteness(pairs(cands), gold)
    val pcAfter = repro.core.Metrics.pairCompleteness(pairs(pruned), gold)
    assert(pruned.count() <= cands.count())
    assert(pcAfter >= pcBefore - 0.05, s"PC dropped from $pcBefore to $pcAfter")
  }
}
