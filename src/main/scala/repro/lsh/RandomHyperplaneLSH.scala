package repro.lsh

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.nn.Linalg

/** Random-hyperplane LSH over tuple DRs (Section 4.2–4.3, Algorithm 4).
  *
  * Each of the L hash tables uses K random hyperplanes; a tuple's bucket
  * in table l is the K-bit sign pattern of its DR against those planes
  * (stored as an Int bitmask, K ≤ 30). Blocking is a *distributed
  * similarity join*: both tables' DRs are signed per partition, exploded
  * to (table, bucket) keys, and candidates come from a shuffle join on
  * the bucket key. `candidatesWith` is that join for every blocking
  * experiment, with multi-probe (Algorithm 5) at mp > 0; it keeps a pair
  * only in the first table where its codes are within mp, so its output
  * is distinct without a second shuffle.
  */
final case class LSHModel(K: Int, L: Int, dim: Int, planes: Array[Array[Array[Double]]]) extends Serializable {
  require(K >= 1 && K <= 30, s"K must be in 1..30 (the code is an Int bitmask), got K = $K")
  require(L >= 1, s"L must be at least 1, got L = $L")

  /** K-bit signature of `v` in hash table `l`: bit k set iff v·h_k ≥ 0. */
  def signature(v: Array[Double], l: Int): Int = {
    var code = 0
    var k = 0
    while (k < K) {
      if (Linalg.dot(v, planes(l)(k)) >= 0) code |= (1 << k)
      k += 1
    }
    code
  }
}

object RandomHyperplaneLSH {

  /** Draw K×L random unit-normal hyperplanes, deterministic in `seed`. */
  def model(dim: Int, k: Int, l: Int, seed: Long = 23): LSHModel = {
    val rng = new scala.util.Random(seed)
    LSHModel(k, l, dim,
      Array.fill(l, k)(Linalg.unit(Array.fill(dim)(rng.nextGaussian()))))
  }

  /** (id, table, code) rows for every tuple × hash table — the L-fold
    * index of Algorithm 4. `df` must carry `id` and a `dr` vector column.
    * Only `candidatePairs` and perfbench's bucket statistics use it.
    */
  def signatures(spark: SparkSession, df: DataFrame, m: LSHModel): DataFrame = {
    val bm = spark.sparkContext.broadcast(m)
    val sig = udf { (dr: Array[Double]) =>
      (0 until bm.value.L).map(l => (l, bm.value.signature(dr, l)))
    }
    df.select(col("id"), explode(sig(col("dr"))).as("tc"))
      .select(col("id"), col("tc._1").as("table"), col("tc._2").as("code"))
  }

  /** Candidate pairs across two relations: tuples sharing a bucket in any
    * hash table (deduplicated). `candidatesWith` gives the same set from
    * one shuffle. This form stays only because the blocked-negative
    * training sample of `BlockingExperiments.blockedClassifier` shuffles
    * the collect order that `distinct()` produces, and perfbench times it.
    */
  def candidatePairs(spark: SparkSession, drA: DataFrame, drB: DataFrame, m: LSHModel): DataFrame = {
    val sa = signatures(spark, drA, m).withColumnRenamed("id", "idA")
    val sb = signatures(spark, drB, m).withColumnRenamed("id", "idB")
    sa.join(sb, Seq("table", "code")).select("idA", "idB").distinct()
  }

  /** The bucket join of every blocking experiment: pairs whose codes lie
    * within Hamming distance `mp` in some hash table, each row carrying
    * `carry` columns of both tuples (suffixed `A`/`B`): (idA, idB,
    * carryA…, carryB…). At mp = 0 this is Algorithm 4's pair set, that of
    * `candidatePairs`; at mp = 1 or 2 the A side also probes the nearby
    * buckets (Algorithm 5).
    *
    * Each tuple is signed once into its L codes, and a pair is kept only at
    * the first table where its codes are within `mp`. An A tuple's probe
    * codes within one table are distinct, so the output is already distinct
    * and needs no `distinct()` or join back for the carried columns.
    */
  def candidatesWith(spark: SparkSession, drA: DataFrame, drB: DataFrame, m: LSHModel,
      carry: Seq[String], mp: Int): DataFrame = {
    MultiProbeLSH.requireMp(mp)
    val firstWithin = udf { (ca: Array[Int], cb: Array[Int]) =>
      var l = 0
      while (l < ca.length && Integer.bitCount(ca(l) ^ cb(l)) > mp) l += 1
      l
    }
    bucketRows(spark, drA, m, "A", carry, mp)
      .join(bucketRows(spark, drB, m, "B", carry, 0), Seq("table", "code"))
      .where(col("table") === firstWithin(col("codesA"), col("codesB")))
      .select((Seq("idA", "idB") ++ carry.map(_ + "A") ++ carry.map(_ + "B")).map(col): _*)
  }

  /** One side of the bucket join: each tuple signed once into `codes<s>`
    * (its L codes), then exploded to one row per (table, code) for every
    * code within `mp` of its own in that table, with `id` and the `carry`
    * columns renamed with suffix `s`.
    */
  private def bucketRows(spark: SparkSession, df: DataFrame, m: LSHModel, s: String,
      carry: Seq[String], mp: Int): DataFrame = {
    val bm = spark.sparkContext.broadcast(m)
    val codes = udf { (dr: Array[Double]) =>
      Array.tabulate(bm.value.L)(l => bm.value.signature(dr, l))
    }
    val probes = udf { (cs: Array[Int]) =>
      for (l <- cs.indices; c <- MultiProbeLSH.probeCodes(cs(l), bm.value.K, mp)) yield (l, c)
    }
    val kept = (col("id").as(s"id$s") +: carry.map(c => col(c).as(c + s))) :+
      codes(col("dr")).as(s"codes$s")
    // `_outer` changes no rows (there are L >= 1 codes), but it stops
    // Catalyst from inferring a non-empty filter that would sign each
    // tuple twice more.
    df.select(kept: _*)
      .select(col("*"), inline_outer(probes(col(s"codes$s"))).as(Seq("table", "code")))
  }

  /** Pair completeness |candidates ∩ gold| / |gold| (1.0 without gold
    * pairs) and |candidates|, from one aggregation over the full outer
    * join of the two sets of distinct (idA, idB) pairs: one Spark action.
    */
  private[lsh] def completeness(candidates: DataFrame, matches: DataFrame): (Double, Long) = {
    val c = candidates.select(col("idA"), col("idB"), lit(true).as("c"))
    val g = matches.select(col("idA"), col("idB"), lit(true).as("g"))
    val r = c.join(g, Seq("idA", "idB"), "full_outer")
      .agg(count(col("c")), count(col("g")), count(when(col("c") && col("g"), true))).head()
    val (nCand, nGold, hits) = (r.getLong(0), r.getLong(1), r.getLong(2))
    (if (nGold == 0) 1.0 else hits.toDouble / nGold, nCand)
  }

  /** Blocking-quality metrics of Section 5.4.
    *
    * @return (pair completeness, reduction ratio) where
    *         PC = |candidates ∩ gold| / |gold| and
    *         RR = |candidates| / |A × B| (smaller = more reduction, the
    *         paper's Figure-10 convention).
    */
  def blockingMetrics(candidates: DataFrame, matches: DataFrame, nA: Long, nB: Long): (Double, Double) = {
    val (pc, nCand) = completeness(candidates, matches)
    (pc, nCand.toDouble / (nA.toDouble * nB.toDouble))
  }
}
