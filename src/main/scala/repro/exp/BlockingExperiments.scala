package repro.exp

import scala.concurrent.Await
import scala.concurrent.duration.Duration

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core._
import repro.data.ERDataset
import repro.lsh._
import repro.nn.MLPClassifier

/** The measurements of the LSH-blocking experiments (Section 5.4,
  * Figures 10–12): pair completeness / reduction ratio sweeps over K and L,
  * end-to-end precision/recall with the classifier applied to blocked
  * candidates (distributed), and multi-probe recall. Their tables are
  * defined in [[ExperimentRegistry]].
  */
object BlockingExperiments {

  final case class BlockPrep(ds: ERDataset, drA: DataFrame, drB: DataFrame, dim: Int)

  /** Both tables' DRs (`id`, `vecs`, `dr`), distributed and marked for
    * caching. No Spark job runs here: the first job that reads a frame
    * fills its cache, and a concurrent reader of the same partition waits
    * on Spark's block lock instead of computing it again.
    */
  def prepareBlocks(spark: SparkSession, ds: ERDataset): BlockPrep = {
    val dict = Dicts.gloveLike(ds.forms)
    def dr(df: DataFrame) =
      TupleEmbedder.withAvgVectors(spark, df, ds.attrs, dict).select("id", "vecs", "dr").cache()
    BlockPrep(ds, dr(ds.tableA), dr(ds.tableB), ds.attrs.size * Dicts.dim)
  }

  /** Figure 10: PC and RR of K×L blocking, one (PC, RR) per (K, L) config.
    * The table sizes are counted once; each config is then one Spark action.
    */
  def sweep(spark: SparkSession, p: BlockPrep, configs: Seq[(Int, Int)]): Seq[(Double, Double)] = {
    val (nA, nB) = (p.ds.nA, p.ds.nB)
    configs.map { case (k, l) =>
      val m = RandomHyperplaneLSH.model(p.dim, k, l, seed = 23)
      val cands = RandomHyperplaneLSH.candidatesWith(spark, p.drA, p.drB, m, Seq(), mp = 0)
      RandomHyperplaneLSH.blockingMetrics(cands, p.ds.matches, nA, nB)
    }
  }

  /** Figures 10 and 11 plot two series: K varies at L=10, and L varies at
    * K=4. `measure` runs once over their distinct (K, L) configs, so the
    * point both series share is measured once; its results come back per
    * series, in the order of `ks` and `ls`.
    */
  def kAndLSeries[T](ks: Seq[Int], ls: Seq[Int])(measure: Seq[(Int, Int)] => Seq[T]): (Seq[T], Seq[T]) = {
    val (kConfigs, lConfigs) = (ks.map((_, 10)), ls.map((4, _)))
    val configs = (kConfigs ++ lConfigs).distinct
    val byConfig = configs.zip(measure(configs)).toMap
    (kConfigs.map(byConfig), lConfigs.map(byConfig))
  }

  /** Train the DeepER classifier once on blocked pairs, then apply it
    * *distributed* to every blocked candidate pair (Algorithm 4 line 9) and
    * measure end-to-end precision/recall against the gold matches
    * (Figure 11).
    *
    * The gold matches are collected first, so a dataset without them fails
    * before any other job starts. Once the training set is built, each
    * (K, L) config's similarity layer starts on a [[DeepER.startFit]]
    * thread: its bucket join carries both tuples' per-attribute vectors, and
    * their cosines ([[Similarity.cosineVector]]) are cached in one partition
    * as `sim`. Meanwhile the caller fits the head and picks its threshold.
    * Each config is then one narrow job that applies the broadcast head to
    * its cached `sim` rows and collects the predicted pairs, which are
    * checked against the gold set on the driver. Every similarity job is
    * awaited, and its cache dropped, before this returns or throws.
    */
  def endToEnd(
      spark: SparkSession,
      p: BlockPrep,
      configs: Seq[(Int, Int)], // (K, L)
      cfg: DeepER.Config = DeepER.Config(folds = 1, epochs = 15),
      maxTrainNeg: Int = 30000,
  ): Seq[(Int, Int, Double, Double)] = {
    val matches = DeepER.goldMatches(p.ds)
    val gold = matches.toSet
    val (feats, labels) = blockedTrainingSet(spark, p, matches, maxTrainNeg, cfg.seed)
    val cosines = udf { (va: Array[Array[Double]], vb: Array[Array[Double]]) => Similarity.cosineVector(va, vb) }
    val sims = configs.map { case (k, l) =>
      DeepER.startFit {
        val m = RandomHyperplaneLSH.model(p.dim, k, l, seed = 23)
        val sim = RandomHyperplaneLSH.candidatesWith(spark, p.drA, p.drB, m, Seq("vecs"), mp = 0)
          .select(col("idA"), col("idB"), cosines(col("vecsA"), col("vecsB")).as("sim"))
          .coalesce(SimilarityPartitions).cache()
        try { sim.count(); sim } catch { case e: Throwable => sim.unpersist(); throw e }
      }
    }
    try {
      val (mlp, threshold) = fitHead(p, feats, labels, cfg)
      val bMlp = spark.sparkContext.broadcast(mlp)
      val score = udf { (sim: Array[Double]) => bMlp.value.predictProb(sim) }
      configs.zip(sims).map { case ((k, l), sim) =>
        val predicted = Await.result(sim, Duration.Inf)
          .where(score(col("sim")) >= threshold)
          .select("idA", "idB")
          .collect()
        val tp = predicted.count(r => gold((r.getLong(0), r.getLong(1))))
        val prec = if (predicted.isEmpty) 0.0 else tp.toDouble / predicted.length
        val rec = tp.toDouble / matches.size
        (k, l, prec, rec)
      }
    } finally {
      sims.foreach(Await.ready(_, Duration.Inf))
      sims.foreach(_.value.foreach(_.foreach(_.unpersist())))
    }
  }

  /** Partitions of each cached similarity frame in `endToEnd`. A cached
    * plan keeps all its shuffle partitions, because adaptive execution does
    * not coalesce a cached plan's output: at 64, most of that stage's time
    * went to GC. A few partitions run as many sort-merge tasks beside the
    * head's fit, each holding its own 64 MB Tungsten pages, and raise the
    * heap peak. One partition does neither.
    */
  private val SimilarityPartitions = 1

  /** `endToEnd`'s training set: the similarity vectors and labels of the
    * gold matches, then of up to `maxTrainNeg` blocked negatives.
    *
    * The negatives are drawn from the *blocked candidate* distribution
    * (K=4, L=10): the classifier must reject exactly the high-similarity
    * non-matches that share a bucket with true duplicates, at ~10^3
    * negatives per positive — the paper's protocol sample (negatives
    * below the minimum matched cosine) never shows it those. The sample
    * shuffles `candidatePairs`' collect order with `seed`, so it must stay
    * on that `distinct()` plan to keep the recorded results.
    *
    * Both tables' vectors are collected on [[DeepER.startFit]] threads while
    * the caller collects the candidates, so the three jobs run at once; both
    * threads are awaited before this returns or throws.
    */
  private[exp] def blockedTrainingSet(
      spark: SparkSession,
      p: BlockPrep,
      matches: IndexedSeq[(Long, Long)],
      maxTrainNeg: Int,
      seed: Long,
  ): (IndexedSeq[Array[Double]], IndexedSeq[Double]) = {
    import spark.implicits._
    val (a, b) = (DeepER.startFit(TupleEmbedder.collectVecs(p.drA)), DeepER.startFit(TupleEmbedder.collectVecs(p.drB)))
    val trainCands = RandomHyperplaneLSH.candidatePairs(
      spark, p.drA, p.drB, RandomHyperplaneLSH.model(p.dim, 4, 10, seed = 31))
    val cands = try trainCands.as[(Long, Long)].collect() finally Seq(a, b).foreach(Await.ready(_, Duration.Inf))
    val (vecsA, vecsB) = (Await.result(a, Duration.Inf), Await.result(b, Duration.Inf))
    val gold = matches.toSet
    val negSample = new scala.util.Random(seed).shuffle(cands.filterNot(gold).toIndexedSeq).take(maxTrainNeg)
    val pairs = matches.map((_, 1.0)) ++ negSample.map((_, 0.0))
    (pairs.map { case ((idA, idB), _) => Similarity.cosineVector(vecsA(idA), vecsB(idB)) }, pairs.map(_._2))
  }

  /** `endToEnd`'s Figure-5 head, fitted on the whole training set, and the
    * threshold that maximises its F1 there.
    */
  private[exp] def fitHead(p: BlockPrep, feats: IndexedSeq[Array[Double]], labels: IndexedSeq[Double],
      cfg: DeepER.Config): (MLPClassifier, Double) = {
    val mlp = new MLPClassifier(p.ds.attrs.size, cfg.hidden, cfg.seed)
    mlp.fit(feats, labels, cfg.epochs, cfg.batchSize, cfg.lr, cfg.l2, cfg.seed)
    (mlp, DeepER.bestThreshold(feats.map(mlp.predictProb), labels))
  }

  /** Figure 12: multi-probe recall at L=1, K=10 for varying top-N, one Spark action per mp. */
  def multiProbe(spark: SparkSession, p: BlockPrep, mps: Seq[Int] = Seq(0, 1, 2),
      topNs: Seq[Int] = Seq(10, 20, 50, 100)): Seq[(Int, Int, Double)] = {
    val m = RandomHyperplaneLSH.model(p.dim, 10, 1, seed = 29)
    mps.flatMap { mp =>
      val recalls = MultiProbeLSH.recallAtTopN(spark, p.drA, p.drB, m, mp, topNs, p.ds.matches)
      topNs.zip(recalls).map { case (n, r) => (mp, n, r) }
    }
  }
}
