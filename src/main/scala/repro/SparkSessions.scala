package repro

import org.apache.spark.sql.SparkSession

/** The SparkSession of every entry point: the test suites, the bench and
  * `repro.jobs.Run`.
  *
  * The master comes from SPARK_MASTER (default `local[*]`), the only
  * variable it reads; shuffles use 64 partitions. Broadcast joins are off,
  * so the LSH bucket joins and the pair joins run the shuffle path they
  * would take at the paper's scale.
  */
object SparkSessions {
  def getOrCreate(appName: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName)
      .config("spark.sql.shuffle.partitions", 64)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}
