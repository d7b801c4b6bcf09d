package repro.synth

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.kb.KB

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Deterministic generator of paired KBs with gold standards.
  *
  * The paper evaluates on IIMB, DBLP-ACM, IMDB-YAGO and DBpedia-YAGO. Those
  * datasets (and the MTurk labels) are not shipped here, so we synthesise a
  * shared "world" of typed objects and derive two KBs from it, mirroring each
  * dataset's *structure*: entity counts, attribute/relationship vocabulary
  * sizes on each side, overlap ratio, label noise, relationship dropout
  * (which sets the consistency ε < 1) and the isolated-entity fraction.
  * See DESIGN.md §2 for the substitution rationale.
  *
  * Everything is deterministic in `profile.seed`.
  */
object KBPairGen {

  /** KB2 entity ids are world ids offset by this constant, so the two id
    * spaces never collide and gold matches are (w, w + Offset2).
    */
  val Offset2: Long = 1_000_000L

  /** Structural knobs for one dataset profile (see DESIGN.md §5). */
  final case class Profile(
      name: String,
      typeCounts: Seq[Int],          // world objects per type
      nGoldAttrs: Int,               // attributes present (renamed) in both KBs
      nAttrs1Only: Int,
      nAttrs2Only: Int,
      nGoldRels: Int,                // relationships present (renamed) in both KBs
      nRels1Only: Int,
      nRels2Only: Int,
      overlap1: Double,              // P(world object ∈ KB1)
      overlap2: Double,
      labelNoise2: Double,           // P(KB2 label perturbed — breaks exact match, keeps candidacy)
      missingLabel2: Double,         // P(KB2 label uninformative — breaks candidacy ⇒ PC < 1)
      relDrop: Double,               // P(a world rel-triple missing from a given KB) ⇒ ε < 1
      valueNoise2: Double,           // P(a KB2 attribute value replaced ⇒ low-sim match)
      attrDrop: Double,              // P(an attribute triple missing from a given KB)
      isolatedFrac: Double,          // P(world object participates in no relationship)
      labelPool1: Int,               // first-token pool size (controls block collisions)
      labelPool2: Int,
      seed: Long,
      nAliasAttrs2: Int = 0,         // KB2 attributes duplicating gold values (1:1 ablation foil)
      overlap1PerType: Seq[Double] = Nil, // per-type overrides of overlap1 (e.g. D-A authors)
      overlap2PerType: Seq[Double] = Nil,
      fanoutBoost: Int = 0)          // raises relationship fan-outs (D-A multi-author pubs)

  final case class KBPair(
      kb1: KB,
      kb2: KB,
      gold: DataFrame,                       // [id1, id2]
      goldAttrMatches: Seq[(String, String)])

  /** Named profiles mirroring the paper's datasets at `scale` (1.0 = bench). */
  def profile(name: String, scale: Double = 1.0, seed: Long = 7L): Profile = {
    def s(x: Int): Int = math.max(12, (x * scale).round.toInt)
    name match {
      case "iimb" => Profile("iimb",
        typeCounts = Seq(s(90), s(80), s(75), s(65), s(55)),
        nGoldAttrs = 12, nAttrs1Only = 0, nAttrs2Only = 0,
        nGoldRels = 15, nRels1Only = 0, nRels2Only = 0,
        overlap1 = 1.0, overlap2 = 1.0,
        labelNoise2 = 0.20, missingLabel2 = 0.01,
        relDrop = 0.05, valueNoise2 = 0.25, attrDrop = 0.05,
        isolatedFrac = 0.015, labelPool1 = 25, labelPool2 = 20, seed = seed)
      case "da" => Profile("da",
        typeCounts = Seq(s(900), s(1100)),   // publications, authors
        nGoldAttrs = 3, nAttrs1Only = 0, nAttrs2Only = 0,
        nGoldRels = 1, nRels1Only = 0, nRels2Only = 0,
        overlap1 = 0.75, overlap2 = 0.9,
        labelNoise2 = 0.12, missingLabel2 = 0.01,
        relDrop = 0.03, valueNoise2 = 0.15, attrDrop = 0.05,
        isolatedFrac = 0.02, labelPool1 = 45, labelPool2 = 35, seed = seed,
        // DBLP's pubs are a subset of ACM's but carry their authors with them;
        // multi-author publications keep the single authorship relation dense.
        overlap1PerType = Seq(0.85, 0.95), overlap2PerType = Seq(0.95, 0.95),
        fanoutBoost = 3)
      case "iy" => Profile("iy",
        typeCounts = Seq(s(1100), s(900), s(700), s(500)), // movies, actors, directors, characters
        nGoldAttrs = 4, nAttrs1Only = 10, nAttrs2Only = 32,
        nGoldRels = 12, nRels1Only = 3, nRels2Only = 21,
        overlap1 = 0.75, overlap2 = 0.35,
        labelNoise2 = 0.20, missingLabel2 = 0.02,
        relDrop = 0.10, valueNoise2 = 0.35, attrDrop = 0.08,
        isolatedFrac = 0.28, labelPool1 = 60, labelPool2 = 45, seed = seed)
      case "dy" => Profile("dy",
        typeCounts = Seq(s(500), s(450), s(400), s(350), s(300), s(250)),
        nGoldAttrs = 19, nAttrs1Only = 41, nAttrs2Only = 1,
        nGoldRels = 15, nRels1Only = 25, nRels2Only = 5,
        overlap1 = 0.70, overlap2 = 0.65,
        labelNoise2 = 0.18, missingLabel2 = 0.09,   // paper: 8.4% of D-Y matches lack labels
        relDrop = 0.12, valueNoise2 = 0.35, attrDrop = 0.15,
        isolatedFrac = 0.55, labelPool1 = 40, labelPool2 = 35, seed = seed,
        nAliasAttrs2 = 3)
      case other => throw new IllegalArgumentException(s"unknown profile $other")
    }
  }

  def generate(spark: SparkSession, p: Profile): KBPair = {
    val rnd = new Random(p.seed)
    val nTypes = p.typeCounts.size
    val typeNames = (0 until nTypes).map(t => s"T$t")
    val typeStart = p.typeCounts.scanLeft(0)(_ + _)
    val nWorld = typeStart.last

    def typeOf(w: Int): Int = {
      var t = 0
      while (t + 1 < typeStart.length && w >= typeStart(t + 1)) t += 1
      t
    }
    def idxInType(w: Int): Int = w - typeStart(typeOf(w))

    // ---- world membership, isolation, label decisions --------------------
    val inKb1 = Array.fill(nWorld)(false)
    val inKb2 = Array.fill(nWorld)(false)
    val isolated = Array.fill(nWorld)(false)
    val labelMode2 = Array.fill(nWorld)(0) // 0 exact, 1 perturbed, 2 missing
    for (w <- 0 until nWorld) {
      val t = typeOf(w)
      inKb1(w) = rnd.nextDouble() < p.overlap1PerType.lift(t).getOrElse(p.overlap1)
      inKb2(w) = rnd.nextDouble() < p.overlap2PerType.lift(t).getOrElse(p.overlap2)
      isolated(w) = rnd.nextDouble() < p.isolatedFrac
      val r = rnd.nextDouble()
      labelMode2(w) = if (r < p.missingLabel2) 2 else if (r < p.missingLabel2 + p.labelNoise2) 1 else 0
    }

    // ---- labels ----------------------------------------------------------
    // Three tokens: two from shared pools (collision ambiguity) + a near-unique
    // id token. Sharing the two pool tokens gives Jaccard 0.5 ≥ 0.3, so pool
    // sizes control candidate-block sizes.
    //
    // Every 4th object is a "twin" of its predecessor: same pool tokens and
    // (below) the same values on half of the string attributes — namesakes /
    // sequels whose literal evidence is deceptive and only the relationship
    // structure separates. These confusables are what make purely
    // monotonicity-based resolution imperfect on the real datasets.
    def isTwin(w: Int): Boolean = idxInType(w) % 4 == 3
    def twinBase(w: Int): Int = if (isTwin(w)) w - 1 else w
    def w1(w: Int) = s"alpha${(twinBase(w) * 31 + 7) % p.labelPool1}"
    def w2(w: Int) = s"beta${(twinBase(w) * 17 + 3) % p.labelPool2}"
    def idTok(w: Int) = s"n$w"
    def label1(w: Int) = s"${w1(w)} ${w2(w)} ${idTok(w)}"
    def label2(w: Int) = labelMode2(w) match {
      case 0 => label1(w)
      case 1 => s"${w1(w)} ${w2(w)} ${idTok(w)}q"
      case 2 => s"zz${w}q" // effectively unlabelled: shares no token ⇒ unblockable
    }

    // ---- attributes ------------------------------------------------------
    // Gold attribute j exists as A1_j in KB1 and A2_j in KB2 and applies to
    // every type; j % 3 == 2 attributes are numeric. Side-only attributes
    // carry random noise values.
    val goldAttrPairs = (0 until p.nGoldAttrs).map(j => (s"A1_$j", s"A2_$j"))
    // A small pool makes distinct entities collide on individual attribute
    // values (same-year movies, common names) — literal evidence alone stays
    // ambiguous, which is what keeps the monotonicity-only baselines honest.
    val valuePool = math.max(8, nWorld / 12)
    def attrValue(w0: Int, j: Int): String = {
      // Twins copy their base's values wholesale: string attributes verbatim,
      // numeric ones within the 0.9 max-percentage-difference band (a 2%
      // shift). Attribute evidence therefore cannot separate a twin pair from
      // a true match — only the relationship structure can.
      val w = twinBase(w0)
      if (j % 3 == 2) {
        // Numeric attributes live on per-attribute scales (years vs budgets vs
        // populations), so cross-attribute values rarely fall within the 0.9
        // max-percentage-difference band while same-attribute values spread
        // over a decade of magnitudes for discrimination.
        val base = (j + 1) * 1000.0
        val raw = base * (1.0 + ((w.toLong * 37 + j * 11) % 997) / 100.0)
        (if (isTwin(w0)) raw * 1.02 else raw).round.toString
      } else s"v${j}x${(w.toLong * (j + 3) + j) % valuePool} v${j}y${w % 13}"
    }

    val attrs1 = new ArrayBuffer[(Long, String, String)]
    val attrs2 = new ArrayBuffer[(Long, String, String)]
    // Wide-vocabulary KBs (the D-Y profile) contain attributes whose values
    // drifted between sources ("G-44.847" vs "G-50.0" in the paper) — those
    // attribute matches are unrecoverable from value similarity and cap the
    // attribute-matching recall, as in Table IV.
    def heavyNoise(j: Int): Boolean = p.nGoldAttrs > 12 && j % 4 == 3
    for (w <- 0 until nWorld; j <- 0 until p.nGoldAttrs) {
      val v = attrValue(w, j)
      if (inKb1(w) && rnd.nextDouble() >= p.attrDrop) attrs1 += ((w.toLong, s"A1_$j", v))
      if (inKb2(w) && rnd.nextDouble() >= p.attrDrop) {
        val noiseP = if (heavyNoise(j)) 0.85 else p.valueNoise2
        val v2 =
          if (rnd.nextDouble() < noiseP) s"noise${rnd.nextInt(100000)}"
          else v
        attrs2 += ((w.toLong + Offset2, s"A2_$j", v2))
        // Alias attributes duplicate gold values under another name — the
        // foil that makes the no-1:1 ablation lose precision (Table IV).
        if (j < p.nAliasAttrs2) attrs2 += ((w.toLong + Offset2, s"A2alias_$j", v2))
      }
    }
    for (w <- 0 until nWorld if inKb1(w); j <- 0 until p.nAttrs1Only if (w + j) % 4 == 0)
      attrs1 += ((w.toLong, s"A1only_$j", s"r1${rnd.nextInt(100000)}"))
    for (w <- 0 until nWorld if inKb2(w); j <- 0 until p.nAttrs2Only if (w + j) % 4 == 0)
      attrs2 += ((w.toLong + Offset2, s"A2only_$j", s"r2${rnd.nextInt(100000)}"))

    // ---- relationships ---------------------------------------------------
    // Gold relationship j exists as R1_j / R2_j, links type (j % nT) to type
    // ((j+1) % nT), with fanout 1 + j % 3 (fanout 1 ⇒ functional-ish). The
    // same world triple is dropped independently from each KB with relDrop,
    // which is what makes the estimated consistencies ε < 1.
    val rels1 = new ArrayBuffer[(Long, String, Long)]
    val rels2 = new ArrayBuffer[(Long, String, Long)]

    def worldTargets(w: Int, j: Int, dstType: Int, fanout: Int): Seq[Int] = {
      val cnt = p.typeCounts(dstType)
      val i = idxInType(w)
      (0 until fanout).map(k => typeStart(dstType) + ((i * (2 * j + 3) + 97 * k + j) % cnt))
        .distinct.filterNot(isolated(_))
    }

    for (j <- 0 until p.nGoldRels) {
      val srcType = j % nTypes
      val dstType = (j + 1) % nTypes
      val fanout = 1 + j % 3 + p.fanoutBoost
      for (w <- typeStart(srcType) until typeStart(srcType + 1) if !isolated(w)) {
        for (d <- worldTargets(w, j, dstType, fanout)) {
          if (inKb1(w) && inKb1(d) && rnd.nextDouble() >= p.relDrop)
            rels1 += ((w.toLong, s"R1_$j", d.toLong))
          if (inKb2(w) && inKb2(d) && rnd.nextDouble() >= p.relDrop)
            rels2 += ((w.toLong + Offset2, s"R2_$j", d.toLong + Offset2))
        }
      }
    }
    // Side-only relationships: same construction, emitted into a single KB.
    def sideOnlyRels(n: Int, tag: String, into: ArrayBuffer[(Long, String, Long)],
                     in: Array[Boolean], offset: Long): Unit = {
      for (j <- 0 until n) {
        val srcType = (j + 1) % nTypes
        val dstType = (j + 2) % nTypes
        for (w <- typeStart(srcType) until typeStart(srcType + 1)
             if !isolated(w) && in(w) && (w + j) % 3 == 0) {
          for (d <- worldTargets(w, j + 50, dstType, 1) if in(d))
            into += ((w.toLong + offset, s"$tag$j", d.toLong + offset))
        }
      }
    }
    sideOnlyRels(p.nRels1Only, "R1only_", rels1, inKb1, 0L)
    sideOnlyRels(p.nRels2Only, "R2only_", rels2, inKb2, Offset2)

    // ---- assemble --------------------------------------------------------
    val ents1 = (0 until nWorld).filter(inKb1)
      .map(w => (w.toLong, label1(w), typeNames(typeOf(w))))
    val ents2 = (0 until nWorld).filter(inKb2)
      .map(w => (w.toLong + Offset2, label2(w), typeNames(typeOf(w))))
    val goldPairs = (0 until nWorld).filter(w => inKb1(w) && inKb2(w))
      .map(w => (w.toLong, w.toLong + Offset2))

    import spark.implicits._
    KBPair(
      KB.fromLocal(spark, ents1, attrs1.toSeq, rels1.toSeq).cache(),
      KB.fromLocal(spark, ents2, attrs2.toSeq, rels2.toSeq).cache(),
      goldPairs.toDF("id1", "id2").cache(),
      goldAttrPairs)
  }
}
