package repro.exp

import java.util.concurrent.CancellationException

import scala.collection.mutable
import scala.concurrent.{Await, Promise}
import scala.concurrent.duration.Duration

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.UserDefinedFunction
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
    * The table sizes are counted once. Each K is then one bucket join, at
    * its largest L, and one Spark action: a (K, L) config's candidates are
    * that join's rows whose `table` is below L.
    */
  def sweep(spark: SparkSession, p: BlockPrep, configs: Seq[(Int, Int)]): Seq[(Double, Double)] = {
    val byK = modelsByK(p, configs)
    val (nA, nB) = (p.ds.nA, p.ds.nB)
    val measured = byK.flatMap { case (m, ls) =>
      val cands = RandomHyperplaneLSH.candidatesWith(spark, p.drA, p.drB, m, Seq(), mp = 0)
      ls.map((m.K, _)).zip(RandomHyperplaneLSH.blockingMetrics(cands, p.ds.matches, nA, nB, ls))
    }.toMap
    configs.map(measured)
  }

  /** Each K of `configs`, as its model at its largest L, with its Ls. The
    * model of every config is drawn (seed 23) before any job, so a bad
    * (K, L) fails on the driver with [[LSHModel]]'s message. A (K, L)
    * model is the first L tables of the K's largest, so one bucket join
    * per K serves every L.
    */
  private def modelsByK(p: BlockPrep, configs: Seq[(Int, Int)]): Iterable[(LSHModel, Seq[Int])] =
    configs.distinct.map { case (k, l) => RandomHyperplaneLSH.model(p.dim, k, l, seed = 23) }
      .groupBy(_.K).values.map(ms => (ms.maxBy(_.L), ms.map(_.L)))

  /** Train the DeepER classifier once on blocked pairs, then apply it
    * *distributed* to every blocked candidate pair (Algorithm 4 line 9) and
    * measure end-to-end precision/recall against the gold matches
    * (Figure 11).
    *
    * Every config's model is drawn, and the gold matches are collected,
    * before any other job starts, so a bad config fails on the driver and
    * a dataset without gold matches fails with its name. Then each K gets
    * a [[DeepER.startFit]] thread, whose bucket join at that K's largest L
    * serves every L of the K. While the caller builds the training set,
    * the thread builds, caches and plans its similarity layer: the bucket
    * join carries both tuples' per-attribute vectors, and their cosines
    * ([[Similarity.cosineVector]]) are cached in one partition as `sim`,
    * beside each pair's `table`. It then waits on a gate. The caller opens
    * the gate once [[blockedTrainingSet]] returns, so no similarity job
    * runs during the blocked-negative collect: such a job would hold its
    * sort pages beside that collect's and raise the heap peak. After the
    * gate, each thread fills its cache while the caller fits the head and
    * picks its threshold. It then waits for the head, applies it,
    * broadcast, to its cached `sim` rows in one narrow job, and collects
    * the predicted pairs' tables and whether each is a gold match. A
    * (K, L) config's predictions are the rows whose `table` is below L, so
    * each config's row is counted from those on the driver, in config
    * order.
    *
    * If the training set or the head fails, the caller fails the gate or
    * the head, and each thread drops its cache without starting another
    * job. Every thread is awaited, and its cache dropped, before this
    * returns or throws.
    */
  def endToEnd(
      spark: SparkSession,
      p: BlockPrep,
      configs: Seq[(Int, Int)], // (K, L)
      cfg: DeepER.Config = DeepER.Config(folds = 1, epochs = 15),
      maxTrainNeg: Int = 30000,
  ): Seq[(Int, Int, Double, Double)] = {
    val byK = modelsByK(p, configs)
    val matches = DeepER.goldMatches(p.ds)
    val gold = matches.toSet
    val collected = Promise[Unit]()
    val head = Promise[(UserDefinedFunction, Double)]()
    val cosines = udf { (va: Array[Array[Double]], vb: Array[Array[Double]]) => Similarity.cosineVector(va, vb) }
    // K -> its predicted pairs' (table, gold match)
    val predictions = byK.map { case (m, _) =>
      m.K -> DeepER.startFit {
        spark.sparkContext.setJobDescription(s"$SimilarityJobs (${m.K}, ${m.L})")
        val sim = RandomHyperplaneLSH.candidatesWith(spark, p.drA, p.drB, m, Seq("vecs"), mp = 0)
          .select(col("idA"), col("idB"), col("table"), cosines(col("vecsA"), col("vecsB")).as("sim"))
          .coalesce(SimilarityPartitions).cache()
        try {
          sim.queryExecution.executedPlan // planned while the caller collects
          Await.result(collected.future, Duration.Inf)
          sim.count()
          val (score, threshold) = Await.result(head.future, Duration.Inf)
          sim.where(score(col("sim")) >= threshold).select("idA", "idB", "table").collect()
            .map(r => (r.getInt(2), gold((r.getLong(0), r.getLong(1)))))
        } finally sim.unpersist()
      }
    }.toMap
    try {
      val (feats, labels) = blockedTrainingSet(spark, p, matches, maxTrainNeg, cfg.seed)
      collected.success(())
      val (mlp, threshold) = fitHead(p, feats, labels, cfg)
      val bMlp = spark.sparkContext.broadcast(mlp)
      head.success((udf { (sim: Array[Double]) => bMlp.value.predictProb(sim) }, threshold))
      configs.map { case (k, l) =>
        val predicted = Await.result(predictions(k), Duration.Inf).filter(_._1 < l)
        val tp = predicted.count(_._2)
        (k, l, if (predicted.isEmpty) 0.0 else tp.toDouble / predicted.length, tp.toDouble / matches.size)
      }
    } finally {
      val failed = new CancellationException("endToEnd failed before scoring; its similarity threads stop")
      Seq(collected, head).foreach(_.tryFailure(failed))
      predictions.values.foreach(Await.ready(_, Duration.Inf))
    }
  }

  /** The job description of `endToEnd`'s similarity and scoring jobs, followed by their K and largest L. */
  private[exp] val SimilarityJobs = "endToEnd similarity"

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
    * The candidates are decoded on the executors into packed id arrays
    * ([[packedPairs]]), in collect order. The gold pairs are removed by a
    * search of the sorted gold ids, and [[MLPClassifier.shuffledIndices]]
    * draws the order with the `nextInt` calls of `Random(seed).shuffle`.
    * So the sample is that of `collect()`, `filterNot(gold)`, `shuffle`
    * and `take(maxTrainNeg)`, without a tuple or a boxed `Long` per
    * candidate.
    *
    * Both tables' vectors are collected on [[DeepER.startFit]] threads while
    * the caller collects the candidates, so the three jobs run at once; both
    * threads are awaited before this returns or throws. `endToEnd` starts
    * no similarity job until this returns.
    */
  private[exp] def blockedTrainingSet(
      spark: SparkSession,
      p: BlockPrep,
      matches: IndexedSeq[(Long, Long)],
      maxTrainNeg: Int,
      seed: Long,
  ): (IndexedSeq[Array[Double]], IndexedSeq[Double]) = {
    require(maxTrainNeg >= 0, s"blockedTrainingSet: maxTrainNeg must be at least 0, got $maxTrainNeg")
    val (a, b) = (DeepER.startFit(TupleEmbedder.collectVecs(p.drA)), DeepER.startFit(TupleEmbedder.collectVecs(p.drB)))
    val trainCands = RandomHyperplaneLSH.candidatePairs(
      spark, p.drA, p.drB, RandomHyperplaneLSH.model(p.dim, 4, 10, seed = 31))
    val ids = try packedPairs(trainCands) finally Seq(a, b).foreach(Await.ready(_, Duration.Inf))
    val (vecsA, vecsB) = (Await.result(a, Duration.Inf), Await.result(b, Duration.Inf))
    val negs = nonGold(ids, matches)
    val order = new Array[Int](negs.length)
    MLPClassifier.shuffledIndices(new scala.util.Random(seed), order)
    val nNeg = math.min(maxTrainNeg, negs.length)
    val negFeats = IndexedSeq.tabulate(nNeg) { j =>
      val i = negs(order(j))
      Similarity.cosineVector(vecsA(ids(2 * i)), vecsB(ids(2 * i + 1)))
    }
    (matches.map { case (idA, idB) => Similarity.cosineVector(vecsA(idA), vecsB(idB)) } ++ negFeats,
      IndexedSeq.fill(matches.size)(1.0) ++ IndexedSeq.fill(nNeg)(0.0))
  }

  /** The (idA, idB) rows of `pairs` as one array, idA, idB, idA, idB, …, in
    * `collect()`'s order. Each partition's rows are decoded on the executors
    * into one packed array, and the arrays are joined in partition order.
    */
  private def packedPairs(pairs: DataFrame): Array[Long] =
    Array.concat(pairs.queryExecution.toRdd.mapPartitions { rows =>
      val ids = new mutable.ArrayBuilder.ofLong
      rows.foreach { r => ids += r.getLong(0); ids += r.getLong(1) }
      Iterator.single(ids.result())
    }.collect().toIndexedSeq: _*)

  /** The indices i, in order, of the packed pairs (`ids(2i)`, `ids(2i + 1)`)
    * that are not gold matches; each is looked up in the gold ids, sorted.
    */
  private def nonGold(ids: Array[Long], matches: IndexedSeq[(Long, Long)]): Array[Int] = {
    val sorted = matches.sorted
    val (goldA, goldB) = (sorted.map(_._1).toArray, sorted.map(_._2).toArray)
    val keep = new mutable.ArrayBuilder.ofInt
    var i = 0
    while (2 * i < ids.length) {
      val a = ids(2 * i)
      val b = ids(2 * i + 1)
      // The first gold pair at or after (a, b) in (idA, idB) order.
      var lo = 0
      var hi = goldA.length
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (goldA(mid) < a || goldA(mid) == a && goldB(mid) < b) lo = mid + 1 else hi = mid
      }
      if (lo == goldA.length || goldA(lo) != a || goldB(lo) != b) keep += i
      i += 1
    }
    keep.result()
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
