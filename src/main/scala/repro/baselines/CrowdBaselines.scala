package repro.baselines

import repro.core.truth.WorkerPool

/** Shared plumbing for the crowdsourced baselines (Table III competitors).
  *
  * Each candidate pair carries the similarity-vector features and the entity
  * type of its KB1 entity — IIMB/D-A/I-Y have "clear type information" used
  * to partition entities (the paper deploys POWER and Corleone per entity
  * cluster following HIKE; we use the same type partitions for all three).
  */
object CrowdBaselines {

  type Pair = (Long, Long)

  final case class Cand(pair: Pair, prior: Double, vec: Array[Double], etype: String) {
    def score: Double = prior + vec.sum
    def features: Array[Double] = vec :+ prior
  }

  final case class CrowdResult(matches: Set[Pair], questions: Int)

  /** Majority-style crowd answer: posterior of Eq. 17 against a 0.5 prior. */
  def ask(pool: WorkerPool, gold: Set[Pair], q: Pair): Boolean = {
    val (labels, quals) = pool.labelFor(q, gold.contains(q))
    WorkerPool.posterior(0.5, labels, quals) >= 0.5
  }
}

/** HIKE baseline [Zhuang et al., CIKM'17]: hybrid human-machine ER that
  * partitions entities into clusters with similar attributes and runs a
  * monotone threshold search inside each partition. Here partitions are the
  * entity types; inside a partition candidates are ordered by aggregate
  * similarity and the match/non-match boundary is located by crowd-labelled
  * binary search (the monotonicity assumption), plus a few verification
  * questions around the boundary.
  */
object Hike {
  import CrowdBaselines._

  /** The largest partition produced by HIKE's hierarchical clustering: each
    * type cluster is subdivided until partitions hold at most this many
    * pairs, and the threshold search runs per partition — which is why
    * HIKE's question count scales with the dataset, as in Table III. The
    * search then asks VerifyPerPartition questions around the boundary.
    */
  val ChunkSize = 500
  val VerifyPerPartition = 4

  def run(cands: Seq[Cand], gold: Set[Pair], pool: WorkerPool): CrowdResult = {
    var questions = 0
    val matches = collection.mutable.Set.empty[Pair]
    val partitions = cands.groupBy(_.etype).toSeq.sortBy(_._1).flatMap {
      case (_, ps) => ps.sortBy(c => (c.pair._1, c.pair._2)).grouped(ChunkSize)
    }
    for (part0 <- partitions) {
      val part = part0.sortBy(-_.score)
      // Binary search for the first non-match position under monotonicity.
      var lo = 0
      var hi = part.size // boundary ∈ [lo, hi]
      while (lo < hi) {
        val mid = (lo + hi) / 2
        questions += 1
        if (ask(pool, gold, part(mid).pair)) lo = mid + 1 else hi = mid
      }
      // Verification questions straddling the boundary (HIKE's refinement).
      val around = ((lo - VerifyPerPartition / 2) until (lo + VerifyPerPartition / 2))
        .filter(i => i >= 0 && i < part.size)
      var boundary = lo
      for (i <- around) {
        questions += 1
        val isM = ask(pool, gold, part(i).pair)
        if (isM && i >= boundary) boundary = i + 1
        else if (!isM && i < boundary) boundary = i
      }
      matches ++= part.take(boundary).map(_.pair)
    }
    CrowdResult(matches.toSet, questions)
  }
}

/** POWER baseline [Chai et al., VLDBJ'18]: partial-order-based crowdsourced
  * ER. Similarity vectors are grouped (rounded) to reduce the search space;
  * the dominance partial order over groups lets one crowd label resolve every
  * comparable group: a match label resolves all dominating groups as matches,
  * a non-match label all dominated groups as non-matches. Groups are asked in
  * descending "coverage" order until every group is resolved.
  */
object Power {
  import CrowdBaselines._
  import repro.core.graph.PartialOrderPruning.dominates

  // Buckets cut points per feature on vectors of at most 8 features (4
  // levels); one run asks at most MaxQuestions over all partitions.
  val Buckets = 3
  val MaxQuestions = 5000

  def run(cands: Seq[Cand], gold: Set[Pair], pool: WorkerPool): CrowdResult = {
    var questions = 0
    val matches = collection.mutable.Set.empty[Pair]
    for ((_, part) <- cands.groupBy(_.etype).toSeq.sortBy(_._1)) {
      // Coarser grouping for high-dimensional vectors keeps the group count
      // (= worst-case question count) bounded, as POWER's grouping intends.
      val dim = part.head.features.length
      val b = if (dim > 8) 1 else Buckets
      // b+1 levels with cut points at i/(b+1) — e.g. b=1 splits at 0.5, b=3
      // at 0.25/0.5/0.75.
      def key(c: Cand): Vector[Int] =
        c.features.map(v => math.min(b, (v * (b + 1)).floor.toInt)).toVector
      val groups = part.groupBy(key).toSeq.sortBy(_._1.mkString(","))
      val keys = groups.map(_._1.map(_.toDouble / b).toArray)
      val members = groups.map(_._2)
      val n = keys.size
      // Dominance adjacency, precomputed once.
      val dominators = Array.tabulate(n)(i =>
        (0 until n).filter(j => j != i && dominates(keys(j), keys(i))).toArray)
      val dominated = Array.tabulate(n)(i =>
        (0 until n).filter(j => j != i && dominates(keys(i), keys(j))).toArray)
      val resolved = Array.fill(n)(0) // 0 unknown, 1 match, -1 non-match
      // Ask in descending static coverage (number of comparable groups).
      val order = (0 until n).sortBy(i => -(dominators(i).length + dominated(i).length))
      for (qi <- order if resolved(qi) == 0 && questions < MaxQuestions) {
        questions += 1
        val rep = members(qi).maxBy(_.score)
        if (ask(pool, gold, rep.pair)) {
          resolved(qi) = 1
          for (j <- dominators(qi) if resolved(j) == 0) resolved(j) = 1
        } else {
          resolved(qi) = -1
          for (j <- dominated(qi) if resolved(j) == 0) resolved(j) = -1
        }
      }
      for (i <- 0 until n if resolved(i) == 1) matches ++= members(i).map(_.pair)
    }
    CrowdResult(matches.toSet, questions)
  }
}

/** Corleone baseline [Gokhale et al., SIGMOD'14]: hands-off crowdsourcing —
  * an active-learning random forest. Seeded with the extreme-similarity
  * pairs, it repeatedly trains a forest, picks the most uncertain unlabelled
  * pairs (votes nearest 50/50), sends them to the crowd, and stops when no
  * uncertain pair remains; the final forest classifies everything unlabelled.
  */
object Corleone {
  import CrowdBaselines._
  import repro.core.truth.RandomForest

  // Batch pairs go to the crowd per round, for at most MaxIters rounds. The
  // loop stops once MinLabels are in and even the least certain vote share
  // is ConvergeMargin from 0.5. Round i's forest has seed Seed + i.
  val Batch = 10
  val MaxIters = 40
  val MinLabels = 40
  val ConvergeMargin = 0.45
  val Seed = 17L

  def run(cands: Seq[Cand], gold: Set[Pair], pool: WorkerPool): CrowdResult = {
    var questions = 0
    val labels = collection.mutable.Map.empty[Pair, Boolean]
    val byPair = cands.map(c => c.pair -> c).toMap
    // Seed labels: the two highest- and two lowest-similarity pairs.
    val sorted = cands.sortBy(-_.score)
    for (c <- sorted.take(2) ++ sorted.takeRight(2)) {
      if (!labels.contains(c.pair)) { questions += 1; labels(c.pair) = ask(pool, gold, c.pair) }
    }
    var iter = 0
    var done = false
    var forest: RandomForest = null
    while (!done && iter < MaxIters) {
      iter += 1
      val pos = labels.count(_._2)
      if (pos == 0 || pos == labels.size) {
        // Degenerate training set: label more extremes.
        val extra = sorted.filterNot(c => labels.contains(c.pair)).take(Batch)
        if (extra.isEmpty) done = true
        else extra.foreach { c => questions += 1; labels(c.pair) = ask(pool, gold, c.pair) }
      } else {
        forest = new RandomForest(nTrees = 50, seed = Seed + iter)
        // Single iteration keeps features and labels aligned — mapping over
        // `labels.keys` (a Set) would re-hash into a differently-ordered set.
        val entries = labels.toArray
        forest.fit(entries.map(e => byPair(e._1).features), entries.map(_._2))
        val unlabeled = cands.filterNot(c => labels.contains(c.pair))
        if (unlabeled.isEmpty) done = true
        else {
          // Converged when even the most uncertain pair is confidently
          // classified AND enough refinement labels were gathered —
          // Corleone keeps crowdsourcing refinement rounds before stopping.
          val byMargin = unlabeled
            .map(c => (c, math.abs(forest.predictProb(c.features) - 0.5)))
            .sortBy(_._2)
          if (byMargin.head._2 > ConvergeMargin && labels.size >= MinLabels) done = true
          else byMargin.take(Batch).foreach { case (c, _) =>
            questions += 1; labels(c.pair) = ask(pool, gold, c.pair)
          }
        }
      }
    }
    val matches = collection.mutable.Set.empty[Pair]
    matches ++= labels.collect { case (p, true) => p }
    if (forest != null)
      matches ++= cands.filterNot(c => labels.contains(c.pair))
        .filter(c => forest.predict(c.features)).map(_.pair)
    CrowdResult(matches.toSet, questions)
  }
}
