package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core._
import repro.data.{ERDataset, ERDatasets}
import repro.lsh._
import repro.nn.MLPClassifier

/** Harnesses for the LSH-blocking experiments (Section 5.4, Figures
  * 10–12): pair completeness / reduction ratio sweeps over K and L,
  * end-to-end precision/recall with the classifier applied to blocked
  * candidates (distributed), and multi-probe recall.
  */
object BlockingExperiments {
  import Experiments.fmtPct

  final case class BlockPrep(ds: ERDataset, drA: DataFrame, drB: DataFrame, dim: Int)

  def prepareBlocks(spark: SparkSession, ds: ERDataset): BlockPrep = {
    val dict = Dicts.gloveLike(ds.forms)
    def dr(df: DataFrame) =
      TupleEmbedder.withAvgVectors(spark, df, ds.attrs, dict).select("id", "vecs", "dr").cache()
    val a = dr(ds.tableA); val b = dr(ds.tableB)
    a.count(); b.count()
    BlockPrep(ds, a, b, ds.attrs.size * Dicts.dim)
  }

  /** Figure 10: PC and RR of K×L blocking, one (PC, RR) per (K, L) config. */
  def sweep(spark: SparkSession, p: BlockPrep, configs: Seq[(Int, Int)]): Seq[(Double, Double)] =
    configs.map { case (k, l) =>
      val m = RandomHyperplaneLSH.model(p.dim, k, l, seed = 23)
      val cands = RandomHyperplaneLSH.candidatesWith(spark, p.drA, p.drB, m, Seq())
      RandomHyperplaneLSH.blockingMetrics(cands, p.ds.matches, p.ds.nA, p.ds.nB)
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
      val predicted = RandomHyperplaneLSH.candidatesWith(spark, p.drA, p.drB, m, Seq("vecs"))
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

  /** Figure 12: multi-probe recall at L=1, K=10 for varying top-N. */
  def multiProbe(
      spark: SparkSession,
      p: BlockPrep,
      mps: Seq[Int] = Seq(0, 1, 2),
      topNs: Seq[Int] = Seq(10, 20, 50, 100),
  ): Seq[(Int, Int, Double)] = {
    val m = RandomHyperplaneLSH.model(p.dim, 10, 1, seed = 29)
    for {
      mp <- mps
      n <- topNs
    } yield {
      val cands = MultiProbeLSH.topNCandidates(spark, p.drA, p.drB, m, mp, n)
      (mp, n, MultiProbeLSH.recall(cands, p.ds.matches))
    }
  }

  // Paper values for the printouts (Prod-AG / Pub-DS series of Figure 10).
  val fig10aPaper = Map( // K -> (Prod-AG PC, Pub-DS PC) at L=10
    1 -> (1.00, 1.00), 2 -> (1.00, 1.00), 4 -> (0.98, 1.00), 6 -> (0.93, 0.97),
    8 -> (0.84, 0.90), 10 -> (0.74, 0.81))
  val fig10bPaper = Map( // K -> (Prod-AG RR, Pub-DS RR) at L=10
    1 -> (0.40, 0.08), 2 -> (0.40, 0.08), 4 -> (0.39, 0.08), 6 -> (0.34, 0.07),
    8 -> (0.28, 0.05), 10 -> (0.20, 0.04))
  val fig10cPaper = Map( // L -> (Prod-AG PC, Pub-DS PC) at K=4
    1 -> (0.52, 0.60), 2 -> (0.70, 0.80), 4 -> (0.87, 0.93), 6 -> (0.94, 0.97),
    8 -> (0.97, 0.99), 10 -> (0.98, 1.00))
  val fig10dPaper = Map( // L -> (Prod-AG RR, Pub-DS RR) at K=4
    1 -> (0.15, 0.03), 2 -> (0.22, 0.05), 4 -> (0.31, 0.06), 6 -> (0.35, 0.07),
    8 -> (0.37, 0.08), 10 -> (0.39, 0.08))
  val fig12Paper = Map( // (mp, topN) -> recall on Prod-AG
    (0, 10) -> 0.16, (0, 20) -> 0.173, (0, 50) -> 0.186, (0, 100) -> 0.19,
    (1, 10) -> 0.33, (1, 20) -> 0.36, (1, 50) -> 0.41, (1, 100) -> 0.44,
    (2, 10) -> 0.42, (2, 20) -> 0.469, (2, 50) -> 0.53, (2, 100) -> 0.58)

  /** Figure 10's two tables: PC and RR on Prod-AG and Pub-DS as K varies
    * at L=10 (a-b) and as L varies at K=4 (c-d), next to the paper's.
    */
  def blockingSweepRows(spark: SparkSession): (Seq[Seq[String]], Seq[Seq[String]]) = {
    val xs = Seq(1, 2, 4, 6, 8, 10) // the values of K, and of L
    def series(ds: ERDataset) = {
      val p = prepareBlocks(spark, ds)
      kAndLSeries(xs, xs)(sweep(spark, p, _))
    }
    val (agK, agL) = series(ERDatasets.prodAG(spark))
    val (dsK, dsL) = series(ERDatasets.pubDS(spark))
    def rows(ag: Seq[(Double, Double)], ds: Seq[(Double, Double)],
             pcPaper: Map[Int, (Double, Double)], rrPaper: Map[Int, (Double, Double)]) =
      xs.lazyZip(ag).lazyZip(ds).map { case (x, (agPc, agRr), (dsPc, dsRr)) =>
        Seq(x.toString, fmtPct(agPc), fmtPct(dsPc), fmtPct(pcPaper(x)._1), fmtPct(pcPaper(x)._2),
          fmtPct(agRr), fmtPct(dsRr), fmtPct(rrPaper(x)._1), fmtPct(rrPaper(x)._2))
      }
    (rows(agK, dsK, fig10aPaper, fig10bPaper), rows(agL, dsL, fig10cPaper, fig10dPaper))
  }
}
