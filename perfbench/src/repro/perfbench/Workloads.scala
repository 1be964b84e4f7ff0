package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.core._
import repro.data.{ERDataset, ERDatasets}
import repro.embedding.EmbeddingDict
import repro.exp.{BlockingExperiments, Dicts, Experiments}
import repro.lsh.{LSHModel, MultiProbeLSH, RandomHyperplaneLSH}
import repro.nn.{BiLstmComp, DeepERNet, MLPClassifier, PairExample}

/** What set-up hands a workload: the generated dataset and its dictionary. */
final case class Inputs(ds: ERDataset, dict: EmbeddingDict)

/** A workload's checked outputs (name -> value) and the clean-up that
  * releases what the run left cached. The clean-up runs outside the timed
  * region.
  */
final case class Outcome(outputs: Map[String, Double], release: () => Unit = () => ())

/** One benchmark workload. `run` drives the program through the harness
  * calls the bench suites use; `traced` rebuilds the same sequence from
  * public calls with one span per layer call, and must return exactly the
  * same outputs.
  */
trait Workload {
  def name: String
  def dataset(spark: SparkSession): ERDataset
  def run(spark: SparkSession, in: Inputs, seed: Long): Outcome
  def traced(spark: SparkSession, in: Inputs, seed: Long, t: Tracer): Outcome
  /** Bounds that hold for every seed; returns the violated ones. */
  def shapeErrors(out: Map[String, Double]): Seq[String]
}

object Workloads {

  /** Sizes of the workloads. `bench` is what the benchmark times: each
    * run of the benchmark must fit a budget of about a minute on four
    * cores. `paper` is the configuration EXPERIMENTS.md was recorded with.
    */
  final case class Sizes(
      avgNegRatio: Int,
      lstmEpochs: Int, lstmMaxTokens: Int,
      lshConfigs: Seq[(Int, Int)],
      /** Also run multi-probe top-N (Figure 12). */
      lshProbe: Boolean,
  )

  val bench = Sizes(avgNegRatio = 10, lstmEpochs = 2, lstmMaxTokens = 3,
    lshConfigs = Seq((10, 10)), lshProbe = false)

  val paper = Sizes(avgNegRatio = 100, lstmEpochs = 16, lstmMaxTokens = 12,
    lshConfigs = Seq((1, 10), (4, 10), (10, 10)), lshProbe = true)

  def all(s: Sizes): Seq[Workload] = Seq(new MatchAvg(s), new MatchLstm(s), new ResolveLsh(s))

  def cfgName(k: Int, l: Int): String = s"k${k}l$l"

  private def idPairs(df: DataFrame): IndexedSeq[(Long, Long)] =
    df.collect().map(r => (r.getLong(0), r.getLong(1))).toIndexedSeq

  /** Table-4 DeepER column on Pub-DC: averaging DRs, negative sampling,
    * cosine features, K-fold CV of the Figure-5 head.
    */
  final class MatchAvg(s: Sizes) extends Workload {
    val name = "match-avg"
    def dataset(spark: SparkSession): ERDataset = ERDatasets.pubDC(spark)
    private def cfg(seed: Long) = DeepER.Config(negRatio = s.avgNegRatio, seed = seed)

    def run(spark: SparkSession, in: Inputs, seed: Long): Outcome = {
      val c = cfg(seed)
      val p = Experiments.prepare(spark, in.ds, in.dict, c.negRatio, c.seed)
      Outcome(Map("f1" -> Experiments.deeperF1(p, c)))
    }

    def traced(spark: SparkSession, in: Inputs, seed: Long, t: Tracer): Outcome = {
      val c = cfg(seed)
      val ds = in.ds
      val vecsA = embed(spark, t, ds.tableA, ds, in.dict)
      val vecsB = embed(spark, t, ds.tableB, ds, in.dict)
      val matches = t("data.matches")(idPairs(ds.matches))
      val pairs = t("core.sample") {
        val (ps, _) = DeepER.samplePairs(matches, vecsA, vecsB, c.negRatio, c.seed)
        t.count("core.pairs_sampled", ps.size)
        ps
      }
      val feats = t("core.features")(pairs.map(p => Similarity.cosineVector(vecsA(p.a), vecsB(p.b))))
      val labels = pairs.map(_.label)
      val f1 = t("core.cv") {
        DeepER.meanF1(DeepER.crossValidate(feats, labels, c, (xs, ys, fs) => t("nn.fit") {
          val mlp = new MLPClassifier(ds.attrs.size, c.hidden, fs)
          mlp.fit(xs, ys, c.epochs, c.batchSize, c.lr, c.l2, fs)
          t.count("nn.example_steps", xs.size.toDouble * c.epochs)
          mlp.predictProb _
        }))
      }
      Outcome(Map("f1" -> f1))
    }

    def shapeErrors(out: Map[String, Double]): Seq[String] =
      Seq(s"Pub-DC DeepER F1 ${out("f1")} should be > 90").filter(_ => !(out("f1") > 90.0))
  }

  /** Figure-9 Bi-LSTM column on Prod-AG: the end-to-end network over
    * token indices, trained per fold.
    */
  final class MatchLstm(s: Sizes) extends Workload {
    val name = "match-lstm"
    private val comp = BiLstmComp(24)
    def dataset(spark: SparkSession): ERDataset = ERDatasets.prodAG(spark)
    private def cfg(seed: Long) = DeepER.Config(
      negRatio = 2, folds = 2, epochs = s.lstmEpochs, maxTokensPerAttr = s.lstmMaxTokens, seed = seed)

    def run(spark: SparkSession, in: Inputs, seed: Long): Outcome =
      Outcome(Map("f1" -> DeepER.meanF1(
        DeepER.runNet(spark, in.ds, in.dict, comp, trainEmbeddings = false, cfg(seed)))))

    /** `runNet` with its private training knobs left out: at the default
      * training fraction and label noise they return their input.
      */
    def traced(spark: SparkSession, in: Inputs, seed: Long, t: Tracer): Outcome = {
      val c = cfg(seed)
      require(c.trainFraction >= 1.0 && c.labelNoise <= 0.0)
      val ds = in.ds
      val vecsA = embed(spark, t, ds.tableA, ds, in.dict)
      val vecsB = embed(spark, t, ds.tableB, ds, in.dict)
      val matches = t("data.matches")(idPairs(ds.matches))
      val pairs = t("core.sample") {
        val (ps, _) = DeepER.samplePairs(matches, vecsA, vecsB, c.negRatio, c.seed)
        t.count("core.pairs_sampled", ps.size)
        ps
      }
      val vocab = t("core.vocab")(DeepER.corpusVocab(spark, ds))
      val (examples, unkIdx, emb) = t("core.token_index") {
        val (index, emb0, unk) = in.dict.toTable(vocab)
        val (toksA, toksB) = DeepER.collectTokenIndices(ds, index, unk, c.maxTokensPerAttr)
        (pairs.map(p => PairExample(toksA(p.a), toksB(p.b), p.label)), unk, emb0)
      }
      val labels = pairs.map(_.label)
      val prfs = t("core.cv") {
        Evaluation.stratifiedFolds(labels, c.folds, c.seed).zipWithIndex.map { case ((train, test), f) =>
          val net = t("nn.net_fit") {
            val n = new DeepERNet(emb, unkIdx, ds.attrs.size, comp, c.hidden, trainEmbeddings = false, c.seed + f)
            val trainEx = train.map(i => examples(i).copy(label = labels(i))).toIndexedSeq
            n.fit(trainEx, c.epochs, c.batchSize, c.lr, c.l2, embLrScale = 0.01, seed = c.seed + f)
            t.count("nn.example_steps", trainEx.size.toDouble * c.epochs)
            n
          }
          val th = DeepER.bestThreshold(train.map(i => net.predictProb(examples(i))), train.map(labels))
          Evaluation.score(test.map(i => net.predictProb(examples(i))), test.map(labels), th)
        }
      }
      Outcome(Map("f1" -> DeepER.meanF1(prfs)))
    }

    def shapeErrors(out: Map[String, Double]): Seq[String] =
      Seq(s"Prod-AG Bi-LSTM F1 ${out("f1")} should be > 40").filter(_ => !(out("f1") > 40.0))
  }

  /** Figure-11 and Figure-12 path on Prod-AG: LSH blocking, distributed
    * scoring of the candidates at each (K, L), then (paper sizes only)
    * multi-probe top-N.
    */
  final class ResolveLsh(s: Sizes) extends Workload {
    val name = "resolve-lsh"
    def dataset(spark: SparkSession): ERDataset = ERDatasets.prodAG(spark)
    // endToEnd's defaults.
    private def cfg(seed: Long) = DeepER.Config(folds = 1, epochs = 15, seed = seed)
    private val maxTrainNeg = 30000
    private val probeK = 10
    private val probeMp = 2
    private val probeTopN = 100

    private def outputs(rows: Seq[(Int, Int, Double, Double)], probeRecall: Option[Double]): Map[String, Double] =
      rows.flatMap { case (k, l, p, r) =>
        Seq(s"precision.${cfgName(k, l)}" -> p, s"recall.${cfgName(k, l)}" -> r)
      }.toMap ++ probeRecall.map("probe_recall" -> _)

    private def release(p: BlockingExperiments.BlockPrep): () => Unit = () => {
      p.drA.unpersist(blocking = true)
      p.drB.unpersist(blocking = true)
    }

    def run(spark: SparkSession, in: Inputs, seed: Long): Outcome = {
      val p = BlockingExperiments.prepareBlocks(spark, in.ds)
      val rows = BlockingExperiments.endToEnd(spark, p, s.lshConfigs, cfg(seed), maxTrainNeg)
      val probe = Option.when(s.lshProbe)(
        BlockingExperiments.multiProbe(spark, p, Seq(probeMp), Seq(probeTopN)).head._3)
      Outcome(outputs(rows, probe), release(p))
    }

    /** `prepareBlocks`, `endToEnd` and `multiProbe` rebuilt call by call.
      * Candidates are cached and counted in their own span so that
      * blocking and scoring are timed apart; bucket statistics are extra
      * jobs that only the traced run pays for.
      */
    def traced(spark: SparkSession, in: Inputs, seed: Long, t: Tracer): Outcome = {
      val c = cfg(seed)
      val ds = in.ds
      // prepareBlocks
      val blockDict = t("embedding.dict_build")(Dicts.gloveLike(ds.forms))
      val (drA, drB) = t("core.embed") {
        def dr(df: DataFrame) =
          TupleEmbedder.withAvgVectors(spark, df, ds.attrs, blockDict).select("id", "vecs", "dr").cache()
        val a = dr(ds.tableA); val b = dr(ds.tableB)
        t.count("core.tuples", (a.count() + b.count()).toDouble)
        (a, b)
      }
      val p = BlockingExperiments.BlockPrep(ds, drA, drB, ds.attrs.size * Dicts.dim)

      // endToEnd
      val dict = t("embedding.dict_build")(Dicts.gloveLike(ds.forms))
      val vecsA = embed(spark, t, ds.tableA, ds, dict)
      val vecsB = embed(spark, t, ds.tableB, ds, dict)
      val (matches, gold) = t("data.matches") { val m = idPairs(ds.matches); (m, m.toSet) }
      val negPairs = t("lsh.train_cands") {
        val cands = RandomHyperplaneLSH.candidatePairs(
          spark, p.drA, p.drB, RandomHyperplaneLSH.model(p.dim, 4, 10, seed = 31))
        val neg = cands.collect().map(r => (r.getLong(0), r.getLong(1))).filterNot(gold)
        t.count("lsh.train_negatives", neg.length)
        neg
      }
      val negSample = t("core.sample") {
        val rng = new scala.util.Random(c.seed)
        val ns = rng.shuffle(negPairs.toIndexedSeq).take(maxTrainNeg)
        t.count("core.pairs_sampled", (ns.size + matches.size).toDouble)
        ns
      }
      val feats = t("core.features") {
        (matches.map(m => (m, 1.0)) ++ negSample.map(n => (n, 0.0))).map {
          case ((a, b), y) => (Similarity.cosineVector(vecsA(a), vecsB(b)), y)
        }
      }
      val mlp = t("nn.fit") {
        val m = new MLPClassifier(ds.attrs.size, c.hidden, c.seed)
        m.fit(feats.map(_._1), feats.map(_._2), c.epochs, c.batchSize, c.lr, c.l2, c.seed)
        t.count("nn.example_steps", feats.size.toDouble * c.epochs)
        m
      }
      val (threshold, score) = t("core.threshold") {
        val th = DeepER.bestThreshold(feats.map(f => mlp.predictProb(f._1)), feats.map(_._2))
        val bMlp = spark.sparkContext.broadcast(mlp)
        (th, udf { (va: Seq[Seq[Double]], vb: Seq[Seq[Double]]) =>
          val sim = Similarity.cosineVector(va.map(_.toArray).toArray, vb.map(_.toArray).toArray)
          bMlp.value.predictProb(sim)
        })
      }
      val nGold = t("data.matches")(ds.matches.count())
      val rows = s.lshConfigs.map { case (k, l) =>
        val cn = cfgName(k, l)
        val m = RandomHyperplaneLSH.model(p.dim, k, l, seed = 23)
        val cands = t(s"lsh.candidates.$cn") {
          val cs = RandomHyperplaneLSH.candidatePairs(spark, p.drA, p.drB, m).cache()
          t.count(s"lsh.candidates.$cn", cs.count().toDouble)
          cs
        }
        t(s"lsh.bucket_stats.$cn")(bucketStats(spark, t, p, m, cn))
        val (prec, rec) = t(s"lsh.score.$cn") {
          val scored = cands
            .join(p.drA.select(col("id").as("idA"), col("vecs").as("va")), "idA")
            .join(p.drB.select(col("id").as("idB"), col("vecs").as("vb")), "idB")
            .withColumn("prob", score(col("va"), col("vb")))
            .where(col("prob") >= threshold)
            .select("idA", "idB")
            .cache()
          val nPred = scored.count()
          val tp = scored.join(ds.matches,
            scored("idA") === ds.matches("idA") && scored("idB") === ds.matches("idB")).count()
          scored.unpersist()
          cands.unpersist()
          (if (nPred == 0) 0.0 else tp.toDouble / nPred, tp.toDouble / nGold)
        }
        (k, l, prec, rec)
      }

      // multiProbe at one (mp, top-N)
      val probe = Option.when(s.lshProbe) {
        val pm = RandomHyperplaneLSH.model(p.dim, probeK, 1, seed = 29)
        val r = t("lsh.probe") {
          MultiProbeLSH.recall(MultiProbeLSH.topNCandidates(spark, p.drA, p.drB, pm, probeMp, probeTopN), ds.matches)
        }
        t("lsh.probe_stats")(probeStats(spark, t, p, pm))
        r
      }
      Outcome(outputs(rows, probe), release(p))
    }

    /** Rows the bucket join emits before `distinct()`, and the largest
      * colliding bucket (A and B tuples together).
      */
    private def bucketStats(spark: SparkSession, t: Tracer, p: BlockingExperiments.BlockPrep, m: LSHModel,
        cn: String): Unit = {
      val r = bucketSizes(spark, p.drA, m, "na")
        .join(bucketSizes(spark, p.drB, m, "nb"), Seq("table", "code"))
        .agg(sum(col("na") * col("nb")), max(col("na") + col("nb")))
        .head()
      t.count(s"lsh.join_rows.$cn", r.getLong(0).toDouble)
      t.count(s"lsh.max_bucket.$cn", r.getLong(1).toDouble)
    }

    /** Probe rows exploded for the A side, and the rows the probe join
      * emits before its `groupBy`.
      */
    private def probeStats(spark: SparkSession, t: Tracer, p: BlockingExperiments.BlockPrep, m: LSHModel): Unit = {
      val mp = probeMp
      val probe = udf { (dr: Seq[Double]) =>
        val v = dr.toArray
        for {
          l <- 0 until m.L
          code <- MultiProbeLSH.probeCodes(m.signature(v, l), m.K, mp)
        } yield (l, code)
      }
      val pa = p.drA.select(explode(probe(col("dr"))).as("tc"))
        .select(col("tc._1").as("table"), col("tc._2").as("code"))
        .groupBy("table", "code").agg(count(lit(1)).as("na"))
      val r = pa.agg(sum("na")).head()
      t.count("lsh.probe_rows", r.getLong(0).toDouble)
      val j = pa.join(bucketSizes(spark, p.drB, m, "nb"), Seq("table", "code"))
        .agg(sum(col("na") * col("nb"))).head()
      t.count("lsh.probe_join_rows", if (j.isNullAt(0)) 0.0 else j.getLong(0).toDouble)
    }

    private def bucketSizes(spark: SparkSession, dr: DataFrame, m: LSHModel, as: String): DataFrame =
      RandomHyperplaneLSH.signatures(spark, dr, m).groupBy("table", "code").agg(count(lit(1)).as(as))

    def shapeErrors(out: Map[String, Double]): Seq[String] = {
      val recallFalls = for {
        (k1, l1) <- s.lshConfigs
        (k2, l2) <- s.lshConfigs
        if l1 == l2 && k1 < k2 && out(s"recall.${cfgName(k1, l1)}") < out(s"recall.${cfgName(k2, l2)}")
      } yield s"recall must not rise with K (${cfgName(k1, l1)} vs ${cfgName(k2, l2)})"
      s.lshConfigs.map { case (k, l) => cfgName(k, l) }
        .filterNot(cn => out(s"precision.$cn") > 0.3).map(cn => s"precision at $cn collapsed") ++
        recallFalls ++
        out.get("probe_recall").filterNot(_ > 0.5).map(r => s"multi-probe recall $r should be > 0.5")
    }
  }

  /** `TupleEmbedder.collectAvgVectors` for one table, as a `core.embed` span. */
  private def embed(spark: SparkSession, t: Tracer, df: DataFrame, ds: ERDataset, dict: EmbeddingDict) =
    t("core.embed") {
      val v = TupleEmbedder.collectAvgVectors(spark, df, ds.attrs, dict)
      t.count("core.tuples", v.size.toDouble)
      v
    }
}
