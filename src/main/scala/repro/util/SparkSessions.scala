package repro.util

import org.apache.spark.sql.SparkSession

/** The one SparkSession definition, shared by the table jobs, the tests and
  * the test tools.
  *
  *   - master: `SPARK_MASTER`, default `local[*]` (a deployment setting);
  *   - shuffle partitions: the core count (`defaultParallelism`). The graphs
  *     are small, so more partitions add task overhead and no parallelism;
  *   - adaptive query execution off: its re-planning of every shuffle stage
  *     costs more than the work on these inputs;
  *   - broadcast joins off, so every join takes the shuffle path.
  *
  * No output depends on the partition count or on adaptive execution
  * (`SettingsIndependenceSpec`), so these settings change only speed.
  */
object SparkSessions {

  def create(appName: String): SparkSession = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName)
      .config("spark.sql.adaptive.enabled", value = false)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .getOrCreate()
    spark.conf.set("spark.sql.shuffle.partitions", spark.sparkContext.defaultParallelism.toLong)
    spark
  }
}
