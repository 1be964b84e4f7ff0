package org.apache.spark.sql

/** The number of plans a session has marked for caching, filled or not. The
  * cache manager's count is package-private to Spark SQL, hence this bridge.
  */
object CachedEntries {
  def apply(spark: SparkSession): Int =
    spark.asInstanceOf[classic.SparkSession].sharedState.cacheManager.numCachedEntries
}
