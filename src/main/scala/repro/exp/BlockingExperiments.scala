package repro.exp

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

  def prepareBlocks(spark: SparkSession, ds: ERDataset): BlockPrep = {
    val dict = Dicts.gloveLike(ds.forms)
    def dr(df: DataFrame) =
      TupleEmbedder.withAvgVectors(spark, df, ds.attrs, dict).select("id", "vecs", "dr").cache()
    val a = dr(ds.tableA); val b = dr(ds.tableB)
    a.count(); b.count()
    BlockPrep(ds, a, b, ds.attrs.size * Dicts.dim)
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

  /** Train the DeepER classifier once on the paper's sampled pairs, then
    * apply it *distributed* to every blocked candidate pair (Algorithm 4
    * line 9) and measure end-to-end precision/recall against the gold
    * matches (Figure 11). Each candidate row carries both tuples'
    * per-attribute vectors out of the bucket join, so scoring needs no
    * further join; the predicted pairs are collected and checked against
    * the gold set on the driver.
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
    val (mlp, threshold) = blockedClassifier(spark, p, matches, cfg, maxTrainNeg)
    val bMlp = spark.sparkContext.broadcast(mlp)
    val score = udf { (va: Array[Array[Double]], vb: Array[Array[Double]]) =>
      bMlp.value.predictProb(Similarity.cosineVector(va, vb))
    }
    configs.map { case (k, l) =>
      val m = RandomHyperplaneLSH.model(p.dim, k, l, seed = 23)
      val predicted = RandomHyperplaneLSH.candidatesWith(spark, p.drA, p.drB, m, Seq("vecs"), mp = 0)
        .where(score(col("vecsA"), col("vecsB")) >= threshold)
        .select("idA", "idB")
        .collect()
      val tp = predicted.count(r => gold((r.getLong(0), r.getLong(1))))
      val prec = if (predicted.isEmpty) 0.0 else tp.toDouble / predicted.length
      val rec = tp.toDouble / matches.size
      (k, l, prec, rec)
    }
  }

  /** `endToEnd`'s classifier and its threshold.
    *
    * Train on negatives drawn from the *blocked candidate* distribution
    * (K=4, L=10): the classifier must reject exactly the high-similarity
    * non-matches that share a bucket with true duplicates, at ~10^3
    * negatives per positive — the paper's protocol sample (negatives
    * below the minimum matched cosine) never shows it those. The sample
    * shuffles `candidatePairs`' collect order, so it must stay on that
    * `distinct()` plan to keep the recorded results.
    */
  private[exp] def blockedClassifier(
      spark: SparkSession,
      p: BlockPrep,
      matches: IndexedSeq[(Long, Long)],
      cfg: DeepER.Config,
      maxTrainNeg: Int,
  ): (MLPClassifier, Double) = {
    import spark.implicits._
    val vecsA = TupleEmbedder.collectVecs(p.drA)
    val vecsB = TupleEmbedder.collectVecs(p.drB)
    val gold = matches.toSet
    val trainCands = RandomHyperplaneLSH.candidatePairs(
      spark, p.drA, p.drB, RandomHyperplaneLSH.model(p.dim, 4, 10, seed = 31))
    val negPairs = trainCands.as[(Long, Long)].collect().filterNot(gold)
    val rng = new scala.util.Random(cfg.seed)
    val negSample = rng.shuffle(negPairs.toIndexedSeq).take(maxTrainNeg)
    val feats = (matches.map(m => (m, 1.0)) ++ negSample.map(n => (n, 0.0))).map {
      case ((a, b), y) => (Similarity.cosineVector(vecsA(a), vecsB(b)), y)
    }
    val mlp = new MLPClassifier(p.ds.attrs.size, cfg.hidden, cfg.seed)
    mlp.fit(feats.map(_._1), feats.map(_._2), cfg.epochs, cfg.batchSize, cfg.lr, cfg.l2, cfg.seed)
    (mlp, DeepER.bestThreshold(feats.map(f => mlp.predictProb(f._1)), feats.map(_._2)))
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
