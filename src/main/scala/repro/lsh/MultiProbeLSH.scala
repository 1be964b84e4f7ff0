package repro.lsh

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** Multi-probe LSH blocking (Section 4.4, Algorithm 5): instead of adding
  * hash tables, each query tuple also probes the buckets whose codes are
  * within Hamming distance `mp` of its own, then keeps only its top-N
  * most-similar candidates — fewer tables, fewer classifier invocations.
  */
object MultiProbeLSH {

  /** All codes within Hamming distance ≤ mp of `code` (including itself).
    * For mp ≤ 2 and K ≤ 30 this is 1 + K + K(K-1)/2 codes.
    */
  def probeCodes(code: Int, k: Int, mp: Int): Seq[Int] = {
    require(mp >= 0 && mp <= 2, s"probe sequences are implemented for mp in 0..2, got mp = $mp")
    val d0 = Seq(code)
    val d1 = if (mp >= 1) (0 until k).map(i => code ^ (1 << i)) else Nil
    val d2 =
      if (mp >= 2)
        for { i <- 0 until k; j <- (i + 1) until k } yield code ^ (1 << i) ^ (1 << j)
      else Nil
    d0 ++ d1 ++ d2
  }

  /** Candidate pairs where each A-tuple probes `mp`-perturbed buckets of
    * every hash table and keeps its top-N candidates by cosine similarity
    * of the DRs (computed distributed; both sides carry their DRs through
    * the bucket join).
    *
    * @return DataFrame(idA, idB, sim)
    */
  def topNCandidates(
      spark: SparkSession,
      drA: DataFrame,
      drB: DataFrame,
      m: LSHModel,
      mp: Int,
      topN: Int,
  ): DataFrame = {
    val bm = spark.sparkContext.broadcast(m)
    val probeSig = udf { (dr: Array[Double]) =>
      for {
        l <- 0 until bm.value.L
        c <- probeCodes(bm.value.signature(dr, l), bm.value.K, mp)
      } yield (l, c)
    }
    val sa = drA.select(col("id").as("idA"), col("dr").as("drA"),
      explode(probeSig(col("dr"))).as("tc"))
      .select(col("idA"), col("drA"), col("tc._1").as("table"), col("tc._2").as("code"))
    val sb = RandomHyperplaneLSH.bucketRows(spark, drB, m, "B", Seq("dr")).drop("codesB")

    val cos = udf((a: Array[Double], b: Array[Double]) => repro.nn.Linalg.cosine(a, b))
    val joined = sa.join(sb, Seq("table", "code"))
      .select(col("idA"), col("idB"), cos(col("drA"), col("drB")).as("sim"))
      .groupBy("idA", "idB").agg(max("sim").as("sim"))
    val w = Window.partitionBy("idA").orderBy(col("sim").desc, col("idB"))
    joined.withColumn("rank", row_number().over(w))
      .where(col("rank") <= topN)
      .drop("rank")
  }

  /** Recall of the gold matches among the retained candidates. */
  def recall(candidates: DataFrame, matches: DataFrame): Double = {
    val hit = candidates.join(matches,
      candidates("idA") === matches("idA") && candidates("idB") === matches("idB")).count()
    val nGold = matches.count()
    if (nGold == 0) 1.0 else hit.toDouble / nGold
  }
}
