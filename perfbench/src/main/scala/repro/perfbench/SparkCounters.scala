package repro.perfbench

import org.apache.spark.ListenerBusDrain
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession

import scala.collection.mutable

/** Spark engine work attributed to one benchmark span. */
final case class EngineCounters(
    jobs: Long = 0, stages: Long = 0, tasks: Long = 0,
    runMs: Long = 0, shuffleBytes: Long = 0, gcMs: Long = 0) {
  def -(o: EngineCounters): EngineCounters = EngineCounters(jobs - o.jobs, stages - o.stages,
    tasks - o.tasks, runMs - o.runMs, shuffleBytes - o.shuffleBytes, gcMs - o.gcMs)
}

/** Benchmark-side listener: every job carries the job group that the span
  * around it set, and stages and tasks are charged to the group of the job
  * that submitted them.
  */
final class SparkCounters extends SparkListener {
  private val stageGroup = mutable.Map.empty[Int, String]
  private val byGroup = mutable.Map.empty[String, EngineCounters].withDefaultValue(EngineCounters())

  private def bump(group: String)(f: EngineCounters => EngineCounters): Unit =
    byGroup(group) = f(byGroup(group))

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty(SparkCounters.GroupKey)))
      .getOrElse(SparkCounters.Untagged)
    e.stageIds.foreach(id => stageGroup.getOrElseUpdate(id, group))
    bump(group)(c => c.copy(jobs = c.jobs + 1))
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val group = stageGroup.getOrElse(e.stageInfo.stageId, SparkCounters.Untagged)
    bump(group)(c => c.copy(stages = c.stages + 1))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val group = stageGroup.getOrElse(e.stageId, SparkCounters.Untagged)
    val m = e.taskMetrics
    val (run, shuffle, gc) =
      if (m == null) (0L, 0L, 0L)
      else (m.executorRunTime,
        m.shuffleWriteMetrics.bytesWritten + m.shuffleReadMetrics.totalBytesRead,
        m.jvmGCTime)
    bump(group)(c => c.copy(tasks = c.tasks + 1, runMs = c.runMs + run,
      shuffleBytes = c.shuffleBytes + shuffle, gcMs = c.gcMs + gc))
  }

  /** Counters of `group`, once every event posted so far has been handled. */
  def of(spark: SparkSession, group: String): EngineCounters = {
    ListenerBusDrain(spark.sparkContext)
    synchronized(byGroup(group))
  }
}

object SparkCounters {
  val GroupKey = "spark.jobGroup.id"
  val Untagged = "(untagged)"
}
