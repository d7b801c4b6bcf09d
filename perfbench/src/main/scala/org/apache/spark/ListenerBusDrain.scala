package org.apache.spark

/** Waits until every event posted so far has reached every listener, so the
  * benchmark's counters are complete when a span closes. Lives in Spark's
  * package because the listener bus is `private[spark]`.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
