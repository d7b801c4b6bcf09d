package repro.perfbench

import org.apache.spark.sql.SparkSession

import scala.collection.mutable.ArrayBuffer

/** One timed call into a layer, with the Spark work its job group ran. */
final case class Span(
    name: String,
    parent: Option[String],
    startNs: Long,
    endNs: Long,
    rowsOut: Long,
    engine: EngineCounters) {
  def wallS: Double = (endNs - startNs) / 1e9
}

/** Records spans in memory; they are written out once the run ends. Each
  * span tags the Spark jobs it starts with a job group named after it, so
  * the listener can charge engine work to the span.
  */
final class Tracer(spark: SparkSession, counters: SparkCounters) {
  val spans: ArrayBuffer[Span] = ArrayBuffer.empty

  def span[A](name: String, parent: Option[String] = None)(body: => A)(rows: A => Long): A = {
    val sc = spark.sparkContext
    val before = counters.of(spark, name)
    sc.setJobGroup(name, name)
    val start = System.nanoTime()
    val (out, n) = try { val o = body; (o, rows(o)) } finally sc.clearJobGroup()
    val end = System.nanoTime()
    spans += Span(name, parent, start, end, n, counters.of(spark, name) - before)
    out
  }
}
