package repro.core.truth

import repro.PropSpec

class RandomForestSpec extends PropSpec {

  private def separable(n: Int, rnd: scala.util.Random): (Array[Array[Double]], Array[Boolean]) = {
    val xs = Array.fill(n) {
      val pos = rnd.nextBoolean()
      val base = if (pos) 0.8 else 0.2
      Array(base + rnd.nextGaussian() * 0.05, rnd.nextDouble())
    }
    (xs, xs.map(_(0) > 0.5))
  }

  test("learns a linearly separable threshold") {
    val rnd = new scala.util.Random(1)
    val (xs, ys) = separable(200, rnd)
    val f = new RandomForest(nTrees = 30).fit(xs, ys)
    assert(f.predict(Array(0.9, 0.5)))
    assert(!f.predict(Array(0.1, 0.5)))
  }
  test("training accuracy is high on separable data") {
    val rnd = new scala.util.Random(2)
    val (xs, ys) = separable(150, rnd)
    val f = new RandomForest(nTrees = 30).fit(xs, ys)
    val acc = xs.zip(ys).count { case (x, y) => f.predict(x) == y }.toDouble / xs.length
    assert(acc > 0.95)
  }
  test("learns an axis-aligned XOR-free interaction") {
    // positive iff both features high — needs depth ≥ 2
    val rnd = new scala.util.Random(3)
    val xs = Array.fill(300)(Array(rnd.nextDouble(), rnd.nextDouble()))
    val ys = xs.map(x => x(0) > 0.5 && x(1) > 0.5)
    val f = new RandomForest(nTrees = 40).fit(xs, ys)
    assert(f.predict(Array(0.9, 0.9)))
    assert(!f.predict(Array(0.9, 0.1)))
    assert(!f.predict(Array(0.1, 0.9)))
  }
  test("predictProb in [0,1]") {
    forSeeds(10) { rnd =>
      val (xs, ys) = separable(60, rnd)
      val f = new RandomForest(nTrees = 10, seed = rnd.nextLong()).fit(xs, ys)
      val p = f.predictProb(Array(rnd.nextDouble(), rnd.nextDouble()))
      assert(p >= 0.0 && p <= 1.0)
    }
  }
  test("all-positive training predicts positive") {
    val xs = Array.fill(20)(Array(0.5))
    val f = new RandomForest(nTrees = 5).fit(xs, Array.fill(20)(true))
    assert(f.predict(Array(0.5)))
  }
  test("deterministic in seed") {
    val rnd = new scala.util.Random(4)
    val (xs, ys) = separable(80, rnd)
    val p1 = new RandomForest(nTrees = 10, seed = 9).fit(xs, ys).predictProb(Array(0.5, 0.5))
    val p2 = new RandomForest(nTrees = 10, seed = 9).fit(xs, ys).predictProb(Array(0.5, 0.5))
    assert(p1 == p2)
  }
  test("empty training set is rejected") {
    intercept[IllegalArgumentException] {
      new RandomForest().fit(Array.empty, Array.empty)
    }
  }
  test("predict before fit is rejected") {
    intercept[IllegalArgumentException] {
      new RandomForest().predictProb(Array(0.0))
    }
  }
  test("a forest of no trees is rejected") {
    intercept[IllegalArgumentException](new RandomForest(nTrees = 0))
  }
  test("a negative maxDepth is rejected") {
    intercept[IllegalArgumentException](new RandomForest(maxDepth = -1))
  }

  // Grids of few values make ties and duplicate rows common; the last one
  // adds signed zeros, infinities and NaN, whose midpoints can send every
  // row to one side of a split.
  private val grids = Seq(
    Array(0.0, 0.5, 1.0),
    Array(-0.0, 0.0, 0.25, 0.5, 0.75, 1.0),
    Array(Double.NegativeInfinity, -0.0, 0.0, 1.0, Double.MaxValue,
      Double.PositiveInfinity, Double.NaN))

  /** n rows of d features; features below `constant` are constant, the rest
    * drawn from `grid`. The label follows the first varying feature, with
    * some noise so trees grow deep.
    */
  private def gridData(rnd: scala.util.Random, n: Int, d: Int, grid: Array[Double],
                       constant: Int): (Array[Array[Double]], Array[Boolean]) = {
    val distinct = Array.fill(math.max(1, n / 3)) {
      Array.tabulate(d)(f => if (f < constant) 0.5 else grid(rnd.nextInt(grid.length)))
    }
    val xs = Array.fill(n)(distinct(rnd.nextInt(distinct.length)).clone())
    val ys = xs.map { x =>
      val v = if (constant < d) x(constant) else 0.0
      (v > 0.4) != (rnd.nextDouble() < 0.2)
    }
    (xs, ys)
  }

  private def assertSameForest(xs: Array[Array[Double]], ys: Array[Boolean], fresh: Array[Array[Double]],
                               nTrees: Int, maxDepth: Int, seed: Long): Unit = {
    val forest = new RandomForest(nTrees = nTrees, maxDepth = maxDepth, seed = seed).fit(xs, ys)
    val reference = new ReferenceForest(nTrees = nTrees, maxDepth = maxDepth, seed = seed).fit(xs, ys)
    for ((x, i) <- (xs ++ fresh).zipWithIndex) {
      val got = forest.predictProb(x)
      val want = reference.predictProb(x)
      assert(java.lang.Double.doubleToRawLongBits(got) == java.lang.Double.doubleToRawLongBits(want),
        s"row $i (${x.mkString(",")}): $got != $want (nTrees=$nTrees maxDepth=$maxDepth)")
    }
  }

  test("predicts bit-equal probabilities to the per-node-sort reference") {
    forSeeds(12) { rnd =>
      for (d <- Seq(1, 2, 4, 13)) {
        val grid = grids(rnd.nextInt(grids.length))
        // With all but one feature constant, the first √d shuffled features
        // are often constant, and the split search must keep looking.
        val constant = if (rnd.nextBoolean()) d - 1 else 0
        val (xs, ys) = gridData(rnd, 20 + rnd.nextInt(120), d, grid, constant)
        val fresh = Array.fill(30)(Array.fill(d)(
          if (rnd.nextBoolean()) grid(rnd.nextInt(grid.length)) else rnd.nextDouble()))
        val nTrees = if (rnd.nextBoolean()) 50 else 100
        val maxDepth = if (rnd.nextBoolean()) 3 else 20
        assertSameForest(xs, ys, fresh, nTrees, maxDepth, rnd.nextLong())
      }
    }
  }
  test("zero-feature rows: every tree is one leaf at its bootstrap's positive rate") {
    val ys = Array.tabulate(30)(_ % 3 == 0)
    val xs = Array.fill(30)(Array.empty[Double])
    val f = new RandomForest(nTrees = 20, seed = 5).fit(xs, ys)
    val rnd = new scala.util.Random(5)
    val rates = Seq.fill(20)(Seq.fill(30)(rnd.nextInt(30)).count(ys(_)).toDouble / 30)
    assert(f.predictProb(Array.empty) == rates.sum / 20)
    assertSameForest(xs, ys, Array.empty, nTrees = 20, maxDepth = 20, seed = 5)
  }
  /** The distinct (raw bits, label) rows of a training set. */
  private def groupCount(xs: Array[Array[Double]], ys: Array[Boolean]): Int =
    xs.indices.map(r => (xs(r).map(java.lang.Double.doubleToRawLongBits).toSeq, ys(r))).distinct.size

  test("duplicate-heavy rows shaped like the workloads: bit-equal to the reference") {
    // 12 0/1 similarity components and a two-valued prior, ≈1.2 k rows drawn
    // from a few hundred vectors; each vector has its own match rate, so
    // many carry both labels.
    forSeeds(3) { rnd =>
      val vectors = Array.fill(300 + rnd.nextInt(150)) {
        Array.tabulate(13)(f =>
          if (f < 12) (if (rnd.nextDouble() < 0.3) 1.0 else 0.0)
          else if (rnd.nextBoolean()) 0.45 else 1 - 1e-9)
      }
      val rates = vectors.map(_ => rnd.nextDouble())
      val picks = Array.fill(1100 + rnd.nextInt(200))(rnd.nextInt(vectors.length))
      val xs = picks.map(vectors(_).clone())
      val ys = picks.map(v => rnd.nextDouble() < rates(v))
      assert(xs.indices.exists(i => xs.indices.exists(j =>
        picks(i) == picks(j) && ys(i) != ys(j))), "no vector carries both labels")
      val fresh = Array.fill(40)(Array.tabulate(13)(f =>
        if (f < 12) (if (rnd.nextBoolean()) 1.0 else 0.0) else rnd.nextDouble()))
      assertSameForest(xs, ys, fresh, nTrees = 100, maxDepth = 20, seed = rnd.nextLong())
      val forest = new RandomForest(nTrees = 5).fit(xs, ys)
      assert(forest.groups == groupCount(xs, ys) && forest.groups < xs.length / 2)
    }
  }
  test("one vector with mixed labels: every tree is one leaf at its bootstrap's positive rate") {
    val n = 40
    val xs = Array.fill(n)(Array(1.0, 0.0, 0.5))
    val ys = Array.tabulate(n)(_ % 3 == 0)
    val f = new RandomForest(nTrees = 20, seed = 5).fit(xs, ys)
    assert(f.groups == 2)
    // Replays the draws: each tree's bootstrap, then the root's feature
    // shuffle, drawn unless the sample is pure.
    val rnd = new scala.util.Random(5)
    val rates = Seq.fill(20) {
      val pos = Seq.fill(n)(rnd.nextInt(n)).count(ys(_))
      if (pos != 0 && pos != n) rnd.shuffle((0 until 3).toList)
      pos.toDouble / n
    }
    for (x <- Seq(xs(0), Array(0.0, 1.0, 0.0)))
      assert(f.predictProb(x) == rates.sum / 20)
    assertSameForest(xs, ys, Array(Array(0.0, 1.0, 0.0)), nTrees = 20, maxDepth = 20, seed = 5)
  }
  test("rows that differ only by the sign of zero or by NaN payload stay separate groups") {
    val nan2 = java.lang.Double.longBitsToDouble(0x7ff8000000000001L)
    assert(java.lang.Double.doubleToRawLongBits(nan2) != java.lang.Double.doubleToRawLongBits(Double.NaN))
    val xs = Array(Array(-0.0), Array(0.0), Array(Double.NaN), Array(nan2), Array(-0.0), Array(0.0))
    val ys = Array(true, true, false, false, false, true)
    val (ids, firstRows) = RandomForest.distinct(xs.toIndexedSeq)
    assert(ids.toSeq == Seq(0, 1, 2, 3, 0, 1) && firstRows.toSeq == Seq(0, 1, 2, 3))
    assert(new RandomForest(nTrees = 5).fit(xs, ys).groups == 5)
    val grid = Array(-0.0, 0.0, Double.NaN, nan2, 1.0)
    forSeeds(6) { rnd =>
      val xs = Array.fill(60 + rnd.nextInt(100))(Array.fill(2)(grid(rnd.nextInt(grid.length))))
      val ys = xs.map(x => (x(0) == 1.0) != (rnd.nextDouble() < 0.2))
      assert(new RandomForest(nTrees = 5).fit(xs, ys).groups == groupCount(xs, ys))
      assertSameForest(xs, ys, grid.map(v => Array(v, v)), nTrees = 50, maxDepth = 20, seed = rnd.nextLong())
    }
  }
  test("continuous features of all-distinct values, alone and with 0/1 features: bit-equal to the reference") {
    // A few hundred distinct values per continuous feature: deep nodes hold
    // a few rows spread over many bins, most of them empty there.
    forSeeds(6) { rnd =>
      for ((continuous, binary) <- Seq((1, 0), (3, 0), (2, 4), (1, 12))) {
        val d = continuous + binary
        val n = 200 + rnd.nextInt(200)
        val xs = Array.fill(n)(Array.tabulate(d)(f =>
          if (f < continuous) rnd.nextGaussian() else if (rnd.nextDouble() < 0.3) 1.0 else 0.0))
        for (f <- 0 until continuous) assert(xs.map(_(f)).distinct.length == n)
        val ys = xs.map(x => (x(0) + (if (binary > 0) x(continuous) else 0.0) > 0.3) != (rnd.nextDouble() < 0.2))
        val fresh = Array.fill(30)(Array.tabulate(d)(f =>
          if (f < continuous) rnd.nextGaussian() else rnd.nextInt(2).toDouble))
        assertSameForest(xs, ys, fresh, nTrees = 50, maxDepth = if (rnd.nextBoolean()) 4 else 20, seed = rnd.nextLong())
      }
    }
  }
  test("maxDepth = 0: every tree is its root leaf, bit-equal to the reference") {
    val rnd = new scala.util.Random(7)
    val (xs, ys) = separable(50, rnd)
    assertSameForest(xs, ys, Array(Array(0.5, 0.5)), nTrees = 10, maxDepth = 0, seed = 3)
  }
  test("the forest's generator draws new java.util.Random(seed)'s nextInt(bound) stream") {
    // Bounds just above 2^30 reject about half of their first draws.
    val bounds = Seq(1) ++ (0 to 30).map(1 << _) ++ (1 to 2000) ++ ((1 << 30) + 1 to (1 << 30) + 500) ++
      Seq(Int.MaxValue - 1, Int.MaxValue)
    for (seed <- Seq(0L, 1L, 13L, -1L, Long.MinValue, Long.MaxValue, 0x5DEECE66DL)) {
      val lcg = new RandomForest.Lcg(seed)
      val javaRandom = new java.util.Random(seed)
      for (bound <- bounds ++ bounds.reverse)
        assert(lcg.nextInt(bound) == javaRandom.nextInt(bound), s"seed $seed, bound $bound")
    }
  }
  test("the generator's array shuffle makes scala.util.Random.shuffle's permutation") {
    for (seed <- 0L until 5L) {
      val lcg = new RandomForest.Lcg(seed)
      val scalaRandom = new scala.util.Random(seed)
      for (d <- 0 to 20; _ <- 0 until 3) {
        val a = Array.range(0, d)
        lcg.shuffle(a)
        assert(a.toSeq == scalaRandom.shuffle((0 until d).toList), s"seed $seed, d $d")
      }
      assert(lcg.nextInt(1000) == scalaRandom.nextInt(1000)) // the streams are still in step
    }
  }
  test("ragged training rows are rejected") {
    val xs = Array(Array(0.1, 0.2), Array(0.3), Array(0.5, 0.6))
    intercept[IllegalArgumentException] {
      new RandomForest(nTrees = 5).fit(xs, Array(true, false, true))
    }
  }
  test("a vector whose length is not the fitted dimension is rejected") {
    val rnd = new scala.util.Random(6)
    val (xs, ys) = separable(40, rnd)
    val f = new RandomForest(nTrees = 5).fit(xs, ys)
    intercept[IllegalArgumentException](f.predictProb(Array(0.5)))
    intercept[IllegalArgumentException](f.predictProb(Array(0.5, 0.5, 0.5)))
  }
  test("forest fits separable binary features") {
    val rnd = new scala.util.Random(5)
    val xs = collection.mutable.ArrayBuffer.empty[Array[Double]]
    val ys = collection.mutable.ArrayBuffer.empty[Boolean]
    (0 until 117).foreach { _ =>
      xs += (Array.fill(12)(if (rnd.nextDouble() < 0.75) 1.0 else 0.0) :+ 1.0); ys += true }
    (0 until 277).foreach { _ =>
      xs += (Array.fill(12)(if (rnd.nextDouble() < 0.08) 1.0 else 0.0) :+ 0.5); ys += false }
    val f = new RandomForest(nTrees = 50).fit(xs.toArray, ys.toArray)
    val acc = xs.zip(ys).count { case (x, y) => f.predict(x) == y }.toDouble / xs.size
    assert(acc > 0.95, f"train acc $acc%.3f")
  }
}
