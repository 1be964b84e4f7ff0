package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.{ERDataset, NoiseModel}
import repro.embedding.EmbeddingDict
import repro.nn._

import scala.concurrent.{Await, Future, Promise}
import scala.concurrent.duration.Duration

/** The end-to-end DeepER pipeline (Algorithm 3 + the Section 5.1 setup):
  * tuple DRs → similarity vectors → classifier, with the paper's
  * negative-sampling protocol (threshold = minimum cosine of matched
  * training pairs; negatives sampled below it), stratified K-fold CV, and
  * mean F1 reporting.
  */
object DeepER {

  /** Hyper-parameters; defaults are the paper's (Section 5.1). */
  final case class Config(
      negRatio: Int = 100,
      folds: Int = 5,
      epochs: Int = 20,
      batchSize: Int = 16,
      lr: Double = 0.01,
      l2: Double = 1e-3,
      hidden: Int = 50,
      maxTokensPerAttr: Int = 20,
      seed: Long = 7,
      /** Fraction of each training split actually used (Figure 6). */
      trainFraction: Double = 1.0,
      /** Fraction of training labels flipped (Figure 7). */
      labelNoise: Double = 0.0,
  )

  final case class LabeledPair(a: Long, b: Long, label: Double)

  /** Negative sampling per Section 5.1: threshold = minimum whole-tuple
    * cosine among matches; for each positive, `negRatio` negatives are
    * drawn by replacing one side with another tuple. Candidates above the
    * threshold or colliding with gold matches are rejected, and among the
    * valid draws the *most similar* one is kept — the paper's informative
    * negatives ("truck, not dog, as the negative for cat", after [34]).
    */
  def samplePairs(
      matches: IndexedSeq[(Long, Long)],
      vecsA: Map[Long, Array[Array[Double]]],
      vecsB: Map[Long, Array[Array[Double]]],
      negRatio: Int,
      seed: Long,
  ): (IndexedSeq[LabeledPair], Double) = {
    require(matches.nonEmpty, "samplePairs: no gold matches; the sampling threshold is the minimum matched cosine")
    val threshold = matches.map { case (a, b) => Similarity.tupleCosine(vecsA(a), vecsB(b)) }.min
    val idsA = vecsA.keys.toArray.sorted
    val idsB = vecsB.keys.toArray.sorted
    // DRs and whole-tuple norms by position in idsA / idsB, computed once.
    val drA = idsA.map(vecsA); val normA = drA.map(Similarity.tupleNorm)
    val drB = idsB.map(vecsB); val normB = drB.map(Similarity.tupleNorm)
    val gold = matches.toSet
    val rng = new scala.util.Random(seed)
    val pos = matches.map { case (a, b) => LabeledPair(a, b, 1.0) }
    val neg = matches.flatMap { case (a, b) =>
      val va = vecsA(a); val na = Similarity.tupleNorm(va)
      val vb = vecsB(b); val nb = Similarity.tupleNorm(vb)
      (1 to negRatio).map { _ =>
        var best: (Long, Long) = null
        var bestSim = Double.NegativeInfinity
        (1 to CandidatesPerNeg).foreach { _ =>
          val replaceB = rng.nextBoolean()
          val i = rng.nextInt(if (replaceB) idsB.length else idsA.length)
          val cand = if (replaceB) (a, idsB(i)) else (idsA(i), b)
          if (!gold(cand)) {
            val sim =
              if (replaceB) Similarity.tupleCosine(va, na, drB(i), normB(i))
              else Similarity.tupleCosine(drA(i), normA(i), vb, nb)
            if (sim < threshold && sim > bestSim) { best = cand; bestSim = sim }
          }
        }
        // All draws rejected: accept any non-gold pair — in the synthetic
        // world every non-gold pair really is a non-duplicate. The draws are
        // bounded: when every pair in A×B is gold, none exists.
        if (best == null) {
          var cand = (idsA(rng.nextInt(idsA.length)), b)
          var draws = 1
          while (gold(cand)) {
            if (draws >= MaxFallbackDraws)
              throw new IllegalArgumentException(
                s"samplePairs: no non-gold pair in $MaxFallbackDraws draws from ${idsA.length} x ${idsB.length} " +
                  s"tuples with ${gold.size} gold matches; negative sampling needs pairs that are not matches")
            cand = (idsA(rng.nextInt(idsA.length)), idsB(rng.nextInt(idsB.length)))
            draws += 1
          }
          best = cand
        }
        LabeledPair(best._1, best._2, 0.0)
      }
    }
    ((pos ++ neg), threshold)
  }

  /** Random draws per negative in [[samplePairs]]; the most similar valid one is kept. */
  private val CandidatesPerNeg = 5

  /** Fallback draws before [[samplePairs]] gives up. A draw is gold with
    * probability (gold pairs) / |A×B|, so the bound is only reached, short
    * of vanishing odds, when almost every pair in A×B is a match.
    */
  private val MaxFallbackDraws = 1 << 20

  /** Gold matches of a dataset as (idA, idB), collected to the driver. Fails
    * with the dataset's name when there are none: the DeepER protocol
    * (sampling threshold, stratified folds, recall) needs at least one.
    */
  def goldMatches(ds: ERDataset): IndexedSeq[(Long, Long)] = {
    val matches = ds.matches.collect().map(r => (r.getLong(0), r.getLong(1))).toIndexedSeq
    require(matches.nonEmpty, s"dataset ${ds.name} has no gold matches; DeepER needs at least one to train and evaluate")
    matches
  }

  /** A dataset's tuple DRs and the pairs [[samplePairs]] draws from them, with the pairs'
    * labels and similarity-vector features (computed on first use).
    */
  final case class Prepared(ds: ERDataset, vecsA: Map[Long, Array[Array[Double]]],
      vecsB: Map[Long, Array[Array[Double]]], pairs: IndexedSeq[LabeledPair]) {
    lazy val labels: IndexedSeq[Double] = pairs.map(_.label)
    lazy val cosFeats: IndexedSeq[Array[Double]] = pairs.map(p => Similarity.cosineVector(vecsA(p.a), vecsB(p.b)))
  }

  /** Distributed tuple embedding and the paper's negative sampling: the one preparation of
    * the Table-4 head (`Experiments.prepare`) and of the Figure-5 network ([[prepareNet]]).
    */
  def embedAndSample(spark: SparkSession, ds: ERDataset, dict: EmbeddingDict, negRatio: Int, seed: Long): Prepared = {
    val matches = goldMatches(ds)
    val vecsA = TupleEmbedder.collectAvgVectors(spark, ds.tableA, ds.attrs, dict)
    val vecsB = TupleEmbedder.collectAvgVectors(spark, ds.tableB, ds.attrs, dict)
    Prepared(ds, vecsA, vecsB, samplePairs(matches, vecsA, vecsB, negRatio, seed)._1)
  }

  private def applyTrainKnobs(train: Seq[Int], labels: IndexedSeq[Double], cfg: Config): (Seq[Int], IndexedSeq[Double]) = {
    val rng = new scala.util.Random(cfg.seed + 13)
    val kept =
      if (cfg.trainFraction >= 1.0) train
      else {
        // Stratified subsample so tiny fractions keep some positives.
        val (p, n) = train.partition(labels(_) >= 0.5)
        rng.shuffle(p).take(math.max(2, (p.size * cfg.trainFraction).toInt)) ++
          rng.shuffle(n).take(math.max(2, (n.size * cfg.trainFraction).toInt))
      }
    val noisy =
      if (cfg.labelNoise <= 0.0) labels
      else {
        val keptSet = kept.toSet
        val flip = NoiseModel.flipLabels(labels, cfg.labelNoise, cfg.seed + 17)
        labels.indices.map(i => if (keptSet(i)) flip(i) else labels(i))
      }
    (kept, noisy)
  }

  /** Decision threshold maximizing F1 on the training fold — under heavy
    * class imbalance (1:100) or weak features a fixed 0.5 cut degenerates
    * to the majority class.
    */
  def bestThreshold(probs: Seq[Double], labels: Seq[Double]): Double =
    (1 to 19).map(_ * 0.05).maxBy(t => Evaluation.score(probs, labels, t).f1)

  /** The Section 5.1 cross-validation protocol, shared by every model:
    * stratified folds, the training knobs, `fit` on the training fold with
    * seed `cfg.seed + fold`, and a decision threshold selected on the
    * training fold. Returns per-fold PRF on the held-out fold.
    *
    * Every fold's `fit` is started before any is awaited, so the caller
    * decides whether the fits run at once: a `fit` that returns a started
    * `Future` trains its folds concurrently, one that returns a completed
    * one (see [[crossValidate]]) trains them one after another on the
    * calling thread. Thresholds and scores are then computed in fold
    * order. Each fold's arithmetic depends only on its own inputs and
    * seed, so the result is the same either way. A failed fit is rethrown
    * when its fold is reached.
    */
  def crossValidateOn[X](examples: IndexedSeq[X], labels: IndexedSeq[Double], cfg: Config)(
      fit: (IndexedSeq[X], IndexedSeq[Double], Long) => Future[X => Double]): Seq[PRF] = {
    require(examples.length == labels.length)
    val started = Evaluation.stratifiedFolds(labels, cfg.folds, cfg.seed).zipWithIndex.map { case ((train0, test), f) =>
      val (train, trainLabels) = applyTrainKnobs(train0, labels, cfg)
      val predictor = fit(
        train.map(examples).toIndexedSeq,
        train.map(trainLabels).toIndexedSeq,
        cfg.seed + f)
      (train, test, predictor)
    }
    started.map { case (train, test, predictor) =>
      val predict = Await.result(predictor, Duration.Inf)
      val t = bestThreshold(train.map(i => predict(examples(i))), train.map(labels))
      Evaluation.score(test.map(i => predict(examples(i))), test.map(labels), t)
    }
  }

  /** Starts `fit` on a daemon thread of its own, for [[crossValidateOn]]
    * callers whose fits build their own model and share no mutable state.
    * A thread per fit, not a slot in a pool of one thread per core: k folds
    * on c < k cores then time-share and finish together in about k/c fit
    * times, where a pool would run them in rounds and leave the last one
    * mostly idle. Unlike `Future.apply`, which leaves its future incomplete
    * when the body throws a fatal error such as `OutOfMemoryError`, every
    * throwable fails the future (fatal ones boxed in an
    * `ExecutionException`), so the fold awaiting it fails instead of
    * waiting forever.
    */
  def startFit[P](fit: => P): Future[P] = {
    val done = Promise[P]()
    val t = new Thread(() => try done.success(fit) catch { case e: Throwable => done.failure(e) }, "deeper-fit")
    t.setDaemon(true)
    t.start()
    done.future
  }

  /** [[crossValidateOn]] over precomputed feature vectors, with every fit
    * run on the calling thread, one fold at a time.
    */
  def crossValidate(
      features: IndexedSeq[Array[Double]],
      labels: IndexedSeq[Double],
      cfg: Config,
      fit: (IndexedSeq[Array[Double]], IndexedSeq[Double], Long) => Array[Double] => Double,
  ): Seq[PRF] = crossValidateOn(features, labels, cfg)((xs, ys, s) => Future.successful(fit(xs, ys, s)))

  /** Mean-F1 over folds. */
  def meanF1(prfs: Seq[PRF]): Double = prfs.map(_.f1).sum / prfs.size * 100.0

  /** The Figure-5 network's input: the sampled pairs as token-index examples over `emb`,
    * whose last row, `unkIdx`, is UNK. [[netFolds]] only reads it, so variants can share one.
    */
  final case class NetPrep(nAttrs: Int, examples: IndexedSeq[PairExample], emb: Mat, unkIdx: Int)

  /** [[embedAndSample]], then both tables tokenised once on the driver. The vocabulary is
    * every distinct token; the examples keep each attribute's first `cfg.maxTokensPerAttr`.
    */
  def prepareNet(spark: SparkSession, ds: ERDataset, dict: EmbeddingDict, cfg: Config): NetPrep = {
    val pairs = embedAndSample(spark, ds, dict, cfg.negRatio, cfg.seed).pairs
    val toks = tokenized(ds)
    val (index, emb, unkIdx) = dict.toTable(vocabulary(toks))
    val (idxA, idxB) = indices(toks, index, unkIdx, cfg.maxTokensPerAttr)
    NetPrep(ds.attrs.size, pairs.map(p => PairExample(idxA(p.a), idxB(p.b), p.label)), emb, unkIdx)
  }

  private type Tokens = Map[Long, Array[Seq[String]]]

  /** Each table's tuples tokenised per attribute, from one collect of its raw strings. */
  private def tokenized(ds: ERDataset): (Tokens, Tokens) = {
    def tok(df: DataFrame) = ds.rawValues(df).map { case (id, vals) => id -> vals.map(Tokenizer.tokenize) }
    (tok(ds.tableA), tok(ds.tableB))
  }

  private def vocabulary(t: (Tokens, Tokens)): Seq[String] =
    (t._1.valuesIterator ++ t._2.valuesIterator).flatMap(_.iterator.flatten).toSet.toSeq.sorted

  private def indices(t: (Tokens, Tokens), index: Map[String, Int], unkIdx: Int, maxTokensPerAttr: Int) = {
    def idx(toks: Tokens) = toks.map { case (id, attrs) =>
      id -> attrs.map(_.iterator.take(maxTokensPerAttr).map(index.getOrElse(_, unkIdx)).toArray)
    }
    (idx(t._1), idx(t._2))
  }

  /** [[prepareNet]]'s vocabulary, kept only for perfbench; ROADMAP item 1 deletes it. */
  def corpusVocab(spark: SparkSession, ds: ERDataset): Seq[String] = vocabulary(tokenized(ds))

  /** [[prepareNet]]'s token indices, kept only for perfbench; ROADMAP item 1 deletes it. */
  def collectTokenIndices(ds: ERDataset, index: Map[String, Int], unkIdx: Int, maxTokensPerAttr: Int)
      : (Map[Long, Array[Array[Int]]], Map[Long, Array[Array[Int]]]) =
    indices(tokenized(ds), index, unkIdx, maxTokensPerAttr)

  /** Per-fold PRF of the Figure-5 network with composition `comp` and optional embedding
    * fine-tuning (Sections 2.3 + 3.4; Figures 8 and 9). Each fold builds its own net; a frozen
    * table is only read and a tuned one is copied per fold, so the folds train at once, a
    * thread each, and leave `p` as it was.
    */
  def netFolds(p: NetPrep, comp: Composition, trainEmbeddings: Boolean, cfg: Config): Seq[PRF] =
    crossValidateOn(p.examples, p.examples.map(_.label), cfg) { (xs, ys, s) =>
      startFit {
        val emb = if (trainEmbeddings) p.emb.copy() else p.emb
        val net = new DeepERNet(emb, p.unkIdx, p.nAttrs, comp, cfg.hidden, trainEmbeddings, s)
        val trainEx = xs.zip(ys).map { case (ex, y) => ex.copy(label = y) }
        // Embeddings get a much smaller effective step than the dense
        // layers: Adam normalizes per-parameter step sizes, so the paper's
        // "update rate 0.01" (raw SGD scale) corresponds to a small
        // fraction of the Adam learning rate — anything near 1.0 destroys
        // the pre-trained geometry within an epoch.
        net.fit(trainEx, cfg.epochs, cfg.batchSize, cfg.lr, cfg.l2, embLrScale = 0.01, seed = s)
        net.predictProb _
      }
    }

  /** Full DeepER run through the end-to-end network: [[netFolds]] on a fresh [[prepareNet]]. */
  def runNet(spark: SparkSession, ds: ERDataset, dict: EmbeddingDict, comp: Composition, trainEmbeddings: Boolean,
      cfg: Config = Config(negRatio = 4)): Seq[PRF] =
    netFolds(prepareNet(spark, ds, dict, cfg), comp, trainEmbeddings, cfg)
}
