package org.apache.spark

/** Waits until Spark's listener bus has delivered every queued event, so
  * the task metrics of a finished job are counted before they are read.
  * The bus is package-private to Spark, hence this one-line bridge.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
