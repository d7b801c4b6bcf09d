package repro

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.{DataFrame, Row}
import repro.core.Remp
import repro.synth.KBPairGen
import repro.util.SparkSessions

/** Every field of a `Remp.Prepared` as text, with each double written as its
  * raw IEEE-754 bits, so two dumps are equal exactly when the outputs are
  * bit-identical.
  *
  * Rows of DataFrames, sets and maps are sorted; sequences whose order
  * carries meaning (`attrMatches`, whose order fixes the vector positions,
  * and each inferred list) keep it.
  *
  * As a tool, `main` prepares one generated profile in the shared session
  * (`repro.util.SparkSessions`), with its shuffle partition count and
  * adaptive execution set from the arguments, and writes its dump to a file:
  * {{{
  * sbt "Test/runMain repro.PreparedDump <profile> <scale> <partitions> <aqe:true|false> <out-file>"
  * }}}
  */
object PreparedDump {

  def apply(p: Remp.Prepared): Seq[String] =
    Seq(
      section("numCandidates", Seq(p.numCandidates.toString)),
      section("candidates", frame(p.candidates)),
      section("mIn", frame(p.mIn)),
      section("attrMatches", p.attrMatches.map(cell)),
      section("retained", frame(p.retained)),
      section("edges", frame(p.edges)),
      section("consistency", entries(p.consistency)),
      section("probEdges", frame(p.probEdges)),
      section("inferred", entries(p.inferred)),
      section("priors", entries(p.priors)),
      section("vecs", entries(p.vecs)),
      section("connected", p.connected.toSeq.map(cell).sorted),
      section("isolated", p.isolated.toSeq.map(cell).sorted),
      section("gold", p.gold.toSeq.map(cell).sorted)).flatten

  /** One value as text: doubles as their raw bits in hex, containers
    * element by element.
    */
  def cell(v: Any): String = v match {
    case d: Double => java.lang.Long.toHexString(java.lang.Double.doubleToRawLongBits(d))
    case a: Array[_] => a.map(cell).mkString("[", ",", "]")
    case s: Iterable[_] => s.map(cell).mkString("[", ",", "]")
    case r: Row => r.toSeq.map(cell).mkString("(", ",", ")")
    case t: Product => t.productIterator.map(cell).mkString("(", ",", ")")
    case x => String.valueOf(x)
  }

  private def section(name: String, lines: Seq[String]): Seq[String] =
    s"## $name (${lines.size})" +: lines

  private def frame(df: DataFrame): Seq[String] =
    df.columns.mkString("# ", ",", "") +: df.collect().map(cell).toSeq.sorted

  private def entries[K, V](m: Map[K, V]): Seq[String] =
    m.toSeq.map { case (k, v) => s"${cell(k)} -> ${cell(v)}" }.sorted

  def main(args: Array[String]): Unit = {
    val Array(profile, scale, partitions, aqe, out) = args
    val spark = SparkSessions.create("prepared-dump")
    spark.conf.set("spark.sql.shuffle.partitions", partitions.toLong)
    spark.conf.set("spark.sql.adaptive.enabled", aqe.toBoolean)
    val pair = KBPairGen.generate(spark, KBPairGen.profile(profile, scale.toDouble))
    val dump = apply(Remp.prepare(spark, pair))
    Files.write(Paths.get(out), dump.mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
    spark.stop()
  }
}
