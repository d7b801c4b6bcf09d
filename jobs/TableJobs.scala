package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.tables.Tables
import repro.util.SparkSessions

/** spark-submit entrypoints, one per paper table.
  *
  *   spark-submit --class repro.jobs.TableIIIJob repro.jar [scale]
  *
  * `scale` defaults to 1.0 (the bench scale; see DESIGN.md §5). Each job runs
  * in the shared session (`repro.util.SparkSessions`).
  */
object TableJobs {
  def scaleArg(args: Array[String]): Double =
    args.headOption.map(_.toDouble).getOrElse(1.0)

  /** Prints the rendered table that `table` computes at the scale in `args`. */
  def run(name: String, args: Array[String])(table: (SparkSession, Double) => (String, Any)): Unit = {
    val spark = SparkSessions.create(name)
    try println(table(spark, scaleArg(args))._1)
    finally spark.stop()
  }
}

object TableIIJob {
  def main(args: Array[String]): Unit = TableJobs.run("table-ii", args)(Tables.tableII)
}

object TableIIIJob {
  def main(args: Array[String]): Unit = TableJobs.run("table-iii", args)(Tables.tableIII)
}

object TableIVJob {
  def main(args: Array[String]): Unit = TableJobs.run("table-iv", args)(Tables.tableIV)
}

object TableVJob {
  def main(args: Array[String]): Unit = TableJobs.run("table-v", args)(Tables.tableV)
}

object TableVIJob {
  def main(args: Array[String]): Unit = TableJobs.run("table-vi", args)(Tables.tableVI)
}

object TableVIIJob {
  def main(args: Array[String]): Unit = TableJobs.run("table-vii", args)(Tables.tableVII)
}

object TableVIIIJob {
  def main(args: Array[String]): Unit = TableJobs.run("table-viii", args)(Tables.tableVIII)
}
