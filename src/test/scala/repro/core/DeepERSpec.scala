package repro.core

import org.apache.spark.sql.Row
import repro.SparkSpec
import repro.baseline.{MagellanLike, MagellanLikeSpec, RandomForest}
import repro.data.{ERDataset, ERDatasets}
import repro.embedding.SyntheticGlove
import repro.exp.{Dicts, Experiments}
import repro.nn.{AvgComp, BiLstmComp, MLPClassifier, PairExample, Sent2VecComp}

class DeepERSpec extends SparkSpec {

  private lazy val ds = ERDatasets.restFZ(spark)
  private lazy val dict = SyntheticGlove.build(ds.forms, dim = 50)
  private lazy val vecsA = TupleEmbedder.collectAvgVectors(spark, ds.tableA, ds.attrs, dict)
  private lazy val vecsB = TupleEmbedder.collectAvgVectors(spark, ds.tableB, ds.attrs, dict)
  private lazy val matches = ds.matches.collect().map(r => (r.getLong(0), r.getLong(1))).toIndexedSeq

  /** DeepER-avg per fold: the Table-4 harness's preparation, then
    * cross-validation of the Figure-5 head.
    */
  private def avgFolds(cfg: DeepER.Config): Seq[PRF] = {
    val p = Experiments.prepare(spark, ds, dict, cfg.negRatio, cfg.seed)
    DeepER.crossValidate(p.cosFeats, p.labels, cfg, mlpFit(cfg))
  }

  private def mlpFit(cfg: DeepER.Config)(xs: IndexedSeq[Array[Double]], ys: IndexedSeq[Double], s: Long) = {
    val mlp = new MLPClassifier(ds.attrs.size, cfg.hidden, s)
    mlp.fit(xs, ys, cfg.epochs, cfg.batchSize, cfg.lr, cfg.l2, s)
    mlp.predictProb _
  }

  test("samplePairs yields 1 + negRatio pairs per match") {
    val (pairs, _) = DeepER.samplePairs(matches, vecsA, vecsB, negRatio = 4, seed = 1)
    assert(pairs.size == matches.size * 5)
    assert(pairs.count(_.label == 1.0) == matches.size)
  }

  test("samplePairs negatives never collide with gold matches") {
    val (pairs, _) = DeepER.samplePairs(matches, vecsA, vecsB, negRatio = 4, seed = 2)
    val gold = matches.toSet
    assert(pairs.filter(_.label == 0.0).forall(p => !gold((p.a, p.b))))
  }

  test("sampling threshold is the minimum matched-pair cosine (Section 5.1)") {
    val (_, threshold) = DeepER.samplePairs(matches, vecsA, vecsB, 2, seed = 3)
    val minSim = matches.map { case (a, b) => Similarity.tupleCosine(vecsA(a), vecsB(b)) }.min
    assert(threshold == minSim)
  }

  test("samplePairs is deterministic in seed") {
    val (p1, _) = DeepER.samplePairs(matches, vecsA, vecsB, 3, seed = 4)
    val (p2, _) = DeepER.samplePairs(matches, vecsA, vecsB, 3, seed = 4)
    assert(p1 == p2)
  }

  test("samplePairs fails, rather than hangs, when every pair in A×B is gold") {
    import scala.concurrent.{Await, Future}
    import scala.concurrent.ExecutionContext.Implicits.global
    import scala.concurrent.duration._
    val v = Map(0L -> Array(Array(1.0, 0.0)))
    val run = Future(DeepER.samplePairs(IndexedSeq((0L, 0L)), v, v, negRatio = 1, seed = 1))
    val e = intercept[IllegalArgumentException](Await.result(run, 30.seconds))
    assert(e.getMessage.contains("1 x 1 tuples"), e.getMessage)
  }

  test("a dataset without gold matches fails at the entry point with its name") {
    val empty = ds.copy(matches = ds.matches.limit(0))
    val e = intercept[IllegalArgumentException](Experiments.prepare(spark, empty, dict, negRatio = 2))
    assert(e.getMessage.contains(s"dataset ${ds.name} has no gold matches"), e.getMessage)
  }

  test("embedAndSample without gold matches fails with the dataset's name and leaves no job running") {
    val empty = ds.copy(matches = ds.matches.limit(0))
    val sc = spark.sparkContext
    // The table collects run on threads started by the caller, which inherit its job group.
    val group = "embedAndSample without gold matches"
    sc.setJobGroup(group, group)
    val e = try intercept[IllegalArgumentException](DeepER.embedAndSample(spark, empty, dict, negRatio = 2, seed = 7))
      finally sc.clearJobGroup()
    assert(e.getMessage.contains(s"dataset ${ds.name} has no gold matches"), e.getMessage)
    // The status tracker is fed by the listener bus; drain it (through perfbench's
    // bridge to Spark's package-private bus) before reading. The second look, a
    // moment later, catches a collect that had not yet started when the call returned.
    def groupJobs() = { org.apache.spark.PerfbenchBus.drain(sc); sc.statusTracker.getJobIdsForGroup(group).toSet }
    val atReturn = groupJobs()
    assert(atReturn.nonEmpty, "the table collects did not run before embedAndSample returned")
    assert(sc.statusTracker.getActiveJobIds().isEmpty)
    Thread.sleep(300)
    assert(groupJobs() == atReturn, "a job of embedAndSample started after it returned")
  }

  test("crossValidate produces one PRF per fold") {
    val feats = IndexedSeq.tabulate(200)(i => Array(if (i < 40) 0.9 else 0.1))
    val labels = IndexedSeq.tabulate(200)(i => if (i < 40) 1.0 else 0.0)
    val cfg = DeepER.Config(folds = 4, epochs = 5)
    val prfs = DeepER.crossValidate(feats, labels, cfg, (xs, ys, s) => {
      val m = new MLPClassifier(1, 4, s); m.fit(xs, ys, 10); m.predictProb _
    })
    assert(prfs.size == 4)
    assert(prfs.forall(_.f1 > 0.9)) // trivially separable
  }

  test("crossValidate rejects fewer than two folds") {
    // One fold would train on an empty split; zero folds would average no F1s.
    val feats = IndexedSeq.tabulate(20)(i => Array(i.toDouble))
    val labels = IndexedSeq.tabulate(20)(i => if (i < 5) 1.0 else 0.0)
    for (k <- Seq(0, 1)) {
      var fits = 0
      val e = intercept[IllegalArgumentException] {
        DeepER.crossValidate(feats, labels, DeepER.Config(folds = k), (_, _, _) => { fits += 1; _ => 0.5 })
      }
      assert(e.getMessage.contains(s"got $k"), e.getMessage)
      assert(fits == 0)
    }
  }

  /** 50 one-feature examples, 10 positive, for the CV protocol tests. */
  private val tinyFeats = IndexedSeq.tabulate(50)(i => Array(i.toDouble))
  private val tinyLabels = IndexedSeq.tabulate(50)(i => if (i < 10) 1.0 else 0.0)

  for (k <- Seq(2, 5)) {
    test(s"fold-parallel CV equals sequential CV bit for bit (k = $k)") {
      val cfg = DeepER.Config(negRatio = 4, folds = k, epochs = 4, seed = 11)
      val p = Experiments.prepare(spark, ds, dict, cfg.negRatio, cfg.seed)
      assert(Experiments.deeperFolds(p, cfg) == DeepER.crossValidate(p.cosFeats, p.labels, cfg, mlpFit(cfg)))

      // The serial reference reads each table again and builds every profile from its strings.
      def collectProfiles(df: org.apache.spark.sql.DataFrame) =
        ERDataset.rawValues(df, ds.attrs).map { case (id, vals) => id -> MagellanLikeSpec.profile(vals.toSeq) }
      val (profA, profB) = (collectProfiles(ds.tableA), collectProfiles(ds.tableB))
      val feats = p.pairs.map(q => MagellanLike.features(profA(q.a), profB(q.b)))
      val forestFit = (xs: IndexedSeq[Array[Double]], ys: IndexedSeq[Double], s: Long) =>
        RandomForest.fit(xs, ys, nTrees = 5, seed = s).predictProb _
      assert(MagellanLike.run(p, cfg, nTrees = 5) == DeepER.crossValidate(feats, p.labels, cfg, forestFit))
    }
  }

  test("crossValidate fits on the calling thread, once per fold, with seeds seed + 0 until k") {
    val cfg = DeepER.Config(folds = 5, seed = 40)
    val caller = Thread.currentThread
    val calls = Seq.newBuilder[(Thread, Long)]
    DeepER.crossValidate(tinyFeats, tinyLabels, cfg, (_, _, s) => { calls += (Thread.currentThread -> s); _ => 0.5 })
    assert(calls.result() == (0 until 5).map(f => caller -> (40L + f)))
  }

  test("crossValidateOn scores each started fold on its fit thread, and crossValidate every fold on the caller") {
    import java.util.concurrent.CountDownLatch
    import scala.collection.concurrent.TrieMap
    val cfg = DeepER.Config(folds = 5, seed = 60)
    val fitThreads = TrieMap.empty[Long, Thread]
    val predictThreads = TrieMap.empty[(Long, Thread), Unit]
    // The fits finish only once every fold's scoring is attached, that is, once
    // the CV thread waits for the first PRF.
    val release = new CountDownLatch(1)
    var prfs: Seq[PRF] = Nil
    val cv = new Thread(() => prfs = DeepER.crossValidateOn(tinyFeats, tinyLabels, cfg) { (_, _, s) =>
      DeepER.startFit[Array[Double] => Double] {
        fitThreads(s) = Thread.currentThread
        release.await()
        _ => { predictThreads((s, Thread.currentThread)) = (); 0.5 }
      }
    })
    cv.start()
    val deadline = System.nanoTime + 30e9.toLong
    while (cv.getState != Thread.State.WAITING && System.nanoTime < deadline) Thread.sleep(1)
    release.countDown()
    cv.join(30000)
    assert(prfs.size == 5)
    assert(fitThreads.keySet == (0 until 5).map(60L + _).toSet)
    assert(fitThreads.values.toSet.size == 5 && !fitThreads.values.exists(_ == cv))
    assert(predictThreads.keySet == fitThreads.toSet)

    // crossValidate's completed fits are scored on the calling thread.
    val caller = Thread.currentThread
    val callerPredictThreads = TrieMap.empty[Thread, Unit]
    DeepER.crossValidate(tinyFeats, tinyLabels, cfg, (_, _, _) => _ => { callerPredictThreads(Thread.currentThread) = (); 0.5 })
    assert(callerPredictThreads.keySet == Set(caller))
  }

  test("crossValidateOn starts every fold's fit before awaiting any") {
    import scala.concurrent.{Await, Future, Promise}
    import scala.concurrent.ExecutionContext.Implicits.global
    import scala.concurrent.duration._
    val k = 5
    // Every predictor completes only once the last fold's fit has started.
    val allStarted = Promise[Array[Double] => Double]()
    var started = 0
    val run = Future(DeepER.crossValidateOn(tinyFeats, tinyLabels, DeepER.Config(folds = k)) { (_, _, _) =>
      started += 1
      if (started == k) allStarted.success(_ => 0.5)
      allStarted.future
    })
    assert(Await.result(run, 30.seconds).size == k)
  }

  test("startFit runs more fits at once than there are cores") {
    import java.util.concurrent.CountDownLatch
    import scala.concurrent.{Await, Future}
    import scala.concurrent.ExecutionContext.Implicits.global
    import scala.concurrent.duration._
    // Each fit waits until all have started: on a pool of one thread per
    // core the last one never starts and the call never returns.
    val n = Runtime.getRuntime.availableProcessors + 1
    val allStarted = new CountDownLatch(n)
    val fits = (0 until n).map { i =>
      DeepER.startFit { allStarted.countDown(); allStarted.await(); i }
    }
    assert(Await.result(Future.sequence(fits), 30.seconds) == (0 until n))
  }

  /** Runs 5-fold `crossValidateOn` whose fold-1 fit, started with
    * `startFit`, throws `error`; a hang fails the caller after 30 s.
    */
  private def failFold1(error: String => Throwable): Throwable = {
    import scala.concurrent.{Await, Future}
    import scala.concurrent.ExecutionContext.Implicits.global
    import scala.concurrent.duration._
    val cfg = DeepER.Config(folds = 5, seed = 50)
    val run = Future(DeepER.crossValidateOn(tinyFeats, tinyLabels, cfg) { (_, _, s) =>
      DeepER.startFit[Array[Double] => Double] {
        if (s == cfg.seed + 1) throw error(s"fold ${s - cfg.seed} diverged")
        _ => 0.5
      }
    })
    intercept[Throwable](Await.result(run, 30.seconds))
  }

  test("crossValidateOn rethrows a failed fold's exception instead of hanging") {
    val e = failFold1(new IllegalStateException(_))
    assert(e.isInstanceOf[IllegalStateException], e)
    assert(e.getMessage == "fold 1 diverged", e.getMessage)
  }

  test("a fatal error in a started fit fails crossValidateOn instead of hanging") {
    val e = failFold1(new StackOverflowError(_))
    assert(e.isInstanceOf[java.util.concurrent.ExecutionException], e)
    assert(e.getCause.isInstanceOf[StackOverflowError] && e.getCause.getMessage == "fold 1 diverged", e.getCause)
  }

  test("DeepER-avg achieves high F1 on the easy Rest-FZ dataset") {
    val prfs = avgFolds(DeepER.Config(negRatio = 4, folds = 3, epochs = 12, seed = 5))
    val f1 = DeepER.meanF1(prfs)
    assert(f1 > 90.0, s"F1 = $f1")
  }

  test("trainFraction knob reduces the training set without crashing the protocol") {
    val prfs = avgFolds(DeepER.Config(negRatio = 4, folds = 2, epochs = 8, trainFraction = 0.1, seed = 6))
    assert(prfs.size == 2)
    assert(prfs.forall(p => p.f1 >= 0.0 && p.f1 <= 1.0))
  }

  test("heavy label noise lowers F1 relative to clean labels") {
    val clean = DeepER.meanF1(avgFolds(DeepER.Config(negRatio = 4, folds = 2, epochs = 10, seed = 7)))
    val noisy = DeepER.meanF1(avgFolds(DeepER.Config(negRatio = 4, folds = 2, epochs = 10, seed = 7, labelNoise = 0.45)))
    assert(noisy <= clean, s"noisy=$noisy clean=$clean")
  }

  test("corpusVocab collects distinct tokens from both tables") {
    val vocab = DeepER.corpusVocab(spark, ds)
    assert(vocab.nonEmpty)
    assert(vocab.distinct.size == vocab.size)
    assert(vocab == vocab.sorted)
  }

  test("collectTokenIndices maps OOV tokens to the UNK row and caps length") {
    val (index, _, unkIdx) = dict.toTable(DeepER.corpusVocab(spark, ds))
    val (ta, _) = DeepER.collectTokenIndices(ds, index, unkIdx, maxTokensPerAttr = 2)
    assert(ta.nonEmpty)
    assert(ta.values.forall(_.forall(_.length <= 2)))
  }

  /** Token indices per tuple as nested `Seq`s, which compare by value. */
  private def bySeq(t: Map[Long, Array[Array[Int]]]) = t.map { case (id, as) => id -> as.map(_.toSeq).toSeq }
  private def bySeq(ex: PairExample) = (ex.a.map(_.toSeq).toSeq, ex.b.map(_.toSeq).toSeq, ex.label)

  /** `ds` with one more tuple in table A whose every attribute is NULL. */
  private def withNullTuple(d: ERDataset) = {
    val nullRow = Row.fromSeq(Long.MaxValue +: d.attrs.map(_ => null))
    val nulls = spark.createDataFrame(spark.sparkContext.parallelize(Seq(nullRow), 1), d.tableA.schema)
    d.copy(tableA = d.tableA.union(nulls))
  }

  test("the driver-side vocabulary and token indices equal the distributed reference on every dataset") {
    for (d <- ERDatasets.all(spark) :+ withNullTuple(ds)) {
      val vocab = DeepER.corpusVocab(spark, d)
      assert(vocab == ReferenceTokens.corpusVocab(spark, d), d.name)
      val (index, _, unk) = dict.toTable(vocab)
      val (ta, tb) = DeepER.collectTokenIndices(d, index, unk, maxTokensPerAttr = 3)
      val (ra, rb) = ReferenceTokens.collectTokenIndices(d, index, unk, maxTokensPerAttr = 3)
      assert(bySeq(ta) == bySeq(ra) && bySeq(tb) == bySeq(rb), d.name)
    }
    val (ta, _) = DeepER.collectTokenIndices(withNullTuple(ds), Map.empty, 0, maxTokensPerAttr = 3)
    assert(bySeq(ta)(Long.MaxValue) == ds.attrs.map(_ => Nil))
  }

  test("the driver-side DRs equal the distributed reference bit for bit on every dataset") {
    def bits(m: Map[Long, Array[Array[Double]]]) =
      m.map { case (id, vs) => id -> vs.map(_.map(java.lang.Double.doubleToRawLongBits).toSeq).toSeq }
    for (d <- ERDatasets.all(spark) :+ withNullTuple(ds); df <- Seq(d.tableA, d.tableB)) {
      val dd = Dicts.gloveLike(d.forms)
      val reference = TupleEmbedder.collectVecs(TupleEmbedder.withAvgVectors(spark, df, d.attrs, dd))
      assert(bits(TupleEmbedder.collectAvgVectors(spark, df, d.attrs, dd)) == bits(reference), d.name)
    }
  }

  test("prepareNet builds the reference examples, embedding table and UNK row over the sampled pairs") {
    val cfg = DeepER.Config(negRatio = 3, maxTokensPerAttr = 2, seed = 12)
    for (d <- Seq(ds, withNullTuple(ds))) {
      val p = DeepER.prepareNet(spark, d, dict, cfg)
      val (index, emb, unk) = dict.toTable(ReferenceTokens.corpusVocab(spark, d))
      val (ta, tb) = ReferenceTokens.collectTokenIndices(d, index, unk, cfg.maxTokensPerAttr)
      val pairs = Experiments.prepare(spark, d, dict, cfg.negRatio, cfg.seed).pairs
      assert(p.examples.map(bySeq) == pairs.map(q => bySeq(PairExample(ta(q.a), tb(q.b), q.label))))
      assert(p.unkIdx == unk && p.nAttrs == d.attrs.size)
      assert((p.emb.rows, p.emb.cols) == ((emb.rows, emb.cols)) && p.emb.data.sameElements(emb.data))
    }
  }

  test("a shared prepareNet: a tuned run, then a frozen one, equals a fresh frozen runNet") {
    val cfg = DeepER.Config(negRatio = 2, folds = 2, epochs = 4, maxTokensPerAttr = 5, seed = 13)
    val p = DeepER.prepareNet(spark, ds, dict, cfg)
    val emb0 = p.emb.data.clone()
    DeepER.netFolds(p, Sent2VecComp, trainEmbeddings = true, cfg)
    assert(p.emb.data.sameElements(emb0), "a tuned run changed the shared embedding table")
    assert(DeepER.netFolds(p, AvgComp, trainEmbeddings = false, cfg) ==
      DeepER.runNet(spark, ds, dict, AvgComp, trainEmbeddings = false, cfg))
  }

  test("runNet with averaging composition works end-to-end on a small config") {
    val prfs = DeepER.runNet(spark, ds, dict, AvgComp, trainEmbeddings = false,
      DeepER.Config(negRatio = 2, folds = 2, epochs = 6, seed = 8))
    assert(prfs.size == 2)
    assert(DeepER.meanF1(prfs) > 60.0)
  }

  test("runNet with LSTM composition runs end-to-end (smoke, tiny epochs)") {
    val prfs = DeepER.runNet(spark, ds, dict, BiLstmComp(10), trainEmbeddings = false,
      DeepER.Config(negRatio = 1, folds = 2, epochs = 2, maxTokensPerAttr = 5, seed = 9))
    assert(prfs.size == 2)
  }

  test("meanF1 averages across folds on percent scale") {
    assert(math.abs(DeepER.meanF1(Seq(PRF(1, 1, 0.8), PRF(1, 1, 0.6))) - 70.0) < 1e-9)
  }
}
