package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.tables.Tables

/** spark-submit entrypoints, one per paper table.
  *
  *   spark-submit --class repro.jobs.TableIIIJob repro.jar [scale]
  *
  * `scale` defaults to 1.0 (the bench scale; see DESIGN.md §5).
  */
object TableJobs {
  def session(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  def scaleArg(args: Array[String]): Double =
    args.headOption.map(_.toDouble).getOrElse(1.0)
}

object TableIIJob {
  def main(args: Array[String]): Unit = {
    val spark = TableJobs.session("table-ii")
    println(Tables.tableII(spark, TableJobs.scaleArg(args))._1)
    spark.stop()
  }
}

object TableIIIJob {
  def main(args: Array[String]): Unit = {
    val spark = TableJobs.session("table-iii")
    println(Tables.tableIII(spark, TableJobs.scaleArg(args))._1)
    spark.stop()
  }
}

object TableIVJob {
  def main(args: Array[String]): Unit = {
    val spark = TableJobs.session("table-iv")
    println(Tables.tableIV(spark, TableJobs.scaleArg(args))._1)
    spark.stop()
  }
}

object TableVJob {
  def main(args: Array[String]): Unit = {
    val spark = TableJobs.session("table-v")
    println(Tables.tableV(spark, TableJobs.scaleArg(args))._1)
    spark.stop()
  }
}

object TableVIJob {
  def main(args: Array[String]): Unit = {
    val spark = TableJobs.session("table-vi")
    println(Tables.tableVI(spark, TableJobs.scaleArg(args))._1)
    spark.stop()
  }
}

object TableVIIJob {
  def main(args: Array[String]): Unit = {
    val spark = TableJobs.session("table-vii")
    println(Tables.tableVII(spark, TableJobs.scaleArg(args))._1)
    spark.stop()
  }
}

object TableVIIIJob {
  def main(args: Array[String]): Unit = {
    val spark = TableJobs.session("table-viii")
    println(Tables.tableVIII(spark, TableJobs.scaleArg(args))._1)
    spark.stop()
  }
}
