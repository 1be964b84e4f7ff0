package repro.lsh

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** Multi-probe LSH blocking (Section 4.4, Algorithm 5): instead of adding
  * hash tables, each query tuple also probes the buckets whose codes are
  * within Hamming distance `mp` of its own, then keeps only its top-N
  * most-similar candidates — fewer tables, fewer classifier invocations.
  * The probing itself is `RandomHyperplaneLSH.candidatesWith` at `mp`.
  */
object MultiProbeLSH {

  private[lsh] def requireMp(mp: Int): Unit =
    require(mp >= 0 && mp <= 2, s"probe sequences are implemented for mp in 0..2, got mp = $mp")

  /** All codes within Hamming distance ≤ mp of `code` (including itself).
    * For mp ≤ 2 and K ≤ 30 this is 1 + K + K(K-1)/2 codes.
    */
  def probeCodes(code: Int, k: Int, mp: Int): Seq[Int] = {
    requireMp(mp)
    val d0 = Seq(code)
    val d1 = if (mp >= 1) (0 until k).map(i => code ^ (1 << i)) else Nil
    val d2 =
      if (mp >= 2)
        for { i <- 0 until k; j <- (i + 1) until k } yield code ^ (1 << i) ^ (1 << j)
      else Nil
    d0 ++ d1 ++ d2
  }

  /** The multi-probe candidates of each A tuple, ranked by the cosine
    * similarity of the DRs (ties by `idB`), keeping the top N per A tuple.
    *
    * @return DataFrame(idA, idB, sim)
    */
  def topNCandidates(spark: SparkSession, drA: DataFrame, drB: DataFrame, m: LSHModel, mp: Int, topN: Int): DataFrame =
    ranked(spark, drA, drB, m, mp).where(col("rank") <= topN).drop("rank")

  /** Every multi-probe candidate with its rank among its A tuple's: (idA, idB, sim, rank). */
  private def ranked(spark: SparkSession, drA: DataFrame, drB: DataFrame, m: LSHModel, mp: Int): DataFrame = {
    val cos = udf((a: Array[Double], b: Array[Double]) => repro.nn.Linalg.cosine(a, b))
    val w = Window.partitionBy("idA").orderBy(col("sim").desc, col("idB"))
    RandomHyperplaneLSH.candidatesWith(spark, drA, drB, m, Seq("dr"), mp)
      .select(col("idA"), col("idB"), cos(col("drA"), col("drB")).as("sim"))
      .withColumn("rank", row_number().over(w))
  }

  /** Recall of the gold matches among the retained candidates (1.0 when
    * there are none): the pair completeness of `blockingMetrics`.
    */
  def recall(candidates: DataFrame, matches: DataFrame): Double =
    RandomHyperplaneLSH.completeness(candidates, matches)._1

  /** [[recall]] of [[topNCandidates]] at every N of `topNs`, ranked once: one
    * aggregation of the gold pairs left-joined to their candidates' ranks.
    */
  def recallAtTopN(spark: SparkSession, drA: DataFrame, drB: DataFrame, m: LSHModel, mp: Int,
      topNs: Seq[Int], matches: DataFrame): Seq[Double] = {
    val r = matches.select("idA", "idB").join(ranked(spark, drA, drB, m, mp), Seq("idA", "idB"), "left")
      .agg(count(lit(1)), topNs.map(n => count(when(col("rank") <= n, true))): _*).head()
    topNs.indices.map(i => if (r.getLong(0) == 0) 1.0 else r.getLong(i + 1).toDouble / r.getLong(0))
  }
}
