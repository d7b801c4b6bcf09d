package repro.perfbench

/** Just enough JSON for the benchmark's one-line result. */
object Json {
  /** Metric names and units are identifiers; they need no escaping. */
  private def str(s: String): String = "\"" + s + "\""

  /** A metric value with all its digits; JSON has no NaN or infinity. */
  private def num(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"metric value $x is not a number")
    x.toString
  }

  def result(correct: Boolean, attempted: Long, failed: Long,
             metrics: Seq[(String, Double, String)]): String = {
    val ms = metrics.map { case (name, value, unit) =>
      s"${str(name)}: {${str("value")}: ${num(value)}, ${str("unit")}: ${str(unit)}}"
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
