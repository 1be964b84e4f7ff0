package repro.exp

import scala.collection.mutable
import scala.util.Try

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart}
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.{DeepER, Similarity, TupleEmbedder}
import repro.data.ERDatasets
import repro.lsh.RandomHyperplaneLSH

object BlockingExperimentsSpec {
  /** One start or end of a Spark job, with the job's description ("" without one). */
  final case class JobEvent(jobId: Int, started: Boolean, description: String) {

    /** Whether the job is one of `endToEnd`'s similarity or scoring jobs. */
    def similarity: Boolean = description.startsWith(BlockingExperiments.SimilarityJobs)
  }
}

class BlockingExperimentsSpec extends SparkSpec {
  import BlockingExperimentsSpec.JobEvent

  test("endToEnd precision/recall equal the candidatePairs + vecs joins + matches join formula") {
    val ds = ERDatasets.restFZ(spark)
    val p = BlockingExperiments.prepareBlocks(spark, ds)
    val cfg = DeepER.Config(folds = 1, epochs = 3)
    // (4, 1) is read from the (4, 3) join's first table.
    val configs = Seq((1, 2), (4, 3), (10, 2), (4, 1))
    val rows = BlockingExperiments.endToEnd(spark, p, configs, cfg, maxTrainNeg = 2000)

    // The scoring formula as a chain of joins: deduplicated candidates,
    // one join per side for the vectors, one join against the gold table,
    // with the head fitted on the same training set.
    val (feats, labels) =
      BlockingExperiments.blockedTrainingSet(spark, p, DeepER.goldMatches(ds), maxTrainNeg = 2000, cfg.seed)
    val (mlp, threshold) = BlockingExperiments.fitHead(p, feats, labels, cfg)
    val bMlp = spark.sparkContext.broadcast(mlp)
    val score = udf { (va: Seq[Seq[Double]], vb: Seq[Seq[Double]]) =>
      bMlp.value.predictProb(Similarity.cosineVector(va.map(_.toArray).toArray, vb.map(_.toArray).toArray))
    }
    val nGold = ds.matches.count()
    val expected = configs.map { case (k, l) =>
      val m = RandomHyperplaneLSH.model(p.dim, k, l, seed = 23)
      val scored = RandomHyperplaneLSH.candidatePairs(spark, p.drA, p.drB, m)
        .join(p.drA.select(col("id").as("idA"), col("vecs").as("va")), "idA")
        .join(p.drB.select(col("id").as("idB"), col("vecs").as("vb")), "idB")
        .withColumn("prob", score(col("va"), col("vb")))
        .where(col("prob") >= threshold)
        .select("idA", "idB")
      val nPred = scored.count()
      val tp = scored.join(ds.matches,
        scored("idA") === ds.matches("idA") && scored("idB") === ds.matches("idB")).count()
      (k, l, if (nPred == 0) 0.0 else tp.toDouble / nPred, tp.toDouble / nGold)
    }
    assert(rows == expected)
    assert(rows.forall { case (_, _, prec, rec) => prec > 0.0 && rec > 0.0 }, rows)
    p.drA.unpersist(); p.drB.unpersist()
  }

  test("endToEnd's Rest-FZ (4,10) precision and recall are pinned (blocked-negative sample order)") {
    // 2,000 of Rest-FZ's 32,383 blocked negatives are sampled after a
    // seeded shuffle of their collect order, so any change to that order
    // changes the sample and, with it, the precision recorded here.
    val p = BlockingExperiments.prepareBlocks(spark, ERDatasets.restFZ(spark))
    val rows = BlockingExperiments.endToEnd(spark, p, Seq((4, 10)), DeepER.Config(folds = 1, epochs = 3), maxTrainNeg = 2000)
    assert(rows == Seq((4, 10, 0.9322033898305084, 1.0)))
    p.drA.unpersist(); p.drB.unpersist()
  }

  test("prepareBlocks starts no Spark job: the DR caches fill on first read") {
    val ds = ERDatasets.restFZ(spark)
    val sc = spark.sparkContext
    val group = "prepareBlocks"
    sc.setJobGroup(group, group)
    val p = try BlockingExperiments.prepareBlocks(spark, ds) finally sc.clearJobGroup()
    org.apache.spark.PerfbenchBus.drain(sc)
    assert(sc.statusTracker.getJobIdsForGroup(group).isEmpty)
    p.drA.unpersist(); p.drB.unpersist()
  }

  test("endToEnd leaves only the two DR caches behind: every similarity cache is dropped") {
    val sc = spark.sparkContext
    // Marked caches, filled or not, and the RDDs of the filled ones.
    def cacheEntries = org.apache.spark.sql.CachedEntries(spark)
    val (before, entriesBefore) = (sc.getPersistentRDDs.keySet, cacheEntries)
    val p = BlockingExperiments.prepareBlocks(spark, ERDatasets.restFZ(spark))
    val cfg = DeepER.Config(folds = 1, epochs = 1)
    BlockingExperiments.endToEnd(spark, p, Seq((4, 3), (10, 2)), cfg, maxTrainNeg = 500)
    val filled = sc.getPersistentRDDs.keySet
    assert(filled.diff(before).size == 2)
    assert(cacheEntries == entriesBefore + 2)

    // A negative sample size fails in blockedTrainingSet, before any
    // similarity frame is built: no similarity job starts and no cache is
    // left behind.
    val (result, events) = jobEvents("endToEnd with maxTrainNeg < 0")(
      BlockingExperiments.endToEnd(spark, p, Seq((4, 3), (10, 2)), cfg, maxTrainNeg = -1))
    val e = intercept[IllegalArgumentException](result.get)
    assert(e.getMessage.contains("maxTrainNeg must be at least 0, got -1"), e.getMessage)
    assert(events.nonEmpty, "the gold collect did not run")
    assert(!events.exists(_.similarity), events)
    assert(sc.statusTracker.getActiveJobIds().isEmpty)
    assert(sc.getPersistentRDDs.keySet == filled)
    assert(cacheEntries == entriesBefore + 2)

    p.drA.unpersist(); p.drB.unpersist()
    assert(sc.getPersistentRDDs.keySet == before)
    assert(cacheEntries == entriesBefore)
  }

  test("endToEnd starts no similarity job before the blocked-negative collect's last job ends") {
    val p = BlockingExperiments.prepareBlocks(spark, ERDatasets.restFZ(spark))
    val (result, events) = jobEvents("endToEnd job order")(
      BlockingExperiments.endToEnd(spark, p, Seq((4, 3), (10, 2)), DeepER.Config(folds = 1, epochs = 1), maxTrainNeg = 500))
    result.get
    p.drA.unpersist(); p.drB.unpersist()
    // The gold, DR and blocked-negative collects, each job started and ended.
    val others = events.filterNot(_.similarity)
    assert(others.count(_.started) == others.count(!_.started), events)
    val firstSimilarity = events.indexWhere(j => j.similarity && j.started)
    val lastOtherEnd = events.lastIndexWhere(j => !j.similarity && !j.started)
    assert(firstSimilarity >= 0 && lastOtherEnd >= 0, events)
    assert(lastOtherEnd < firstSimilarity, events)
  }

  test("blockedTrainingSet equals collect, filterNot(gold), Random.shuffle and take, bit for bit") {
    def bits(fs: IndexedSeq[Array[Double]]) = fs.map(_.map(java.lang.Double.doubleToRawLongBits).toSeq)
    val seed = DeepER.Config().seed
    for ((ds, maxTrainNeg) <- Seq((ERDatasets.prodAG(spark), 30000), (ERDatasets.restFZ(spark), 2000))) {
      val p = BlockingExperiments.prepareBlocks(spark, ds)
      val matches = DeepER.goldMatches(ds)
      val (feats, labels) = BlockingExperiments.blockedTrainingSet(spark, p, matches, maxTrainNeg, seed)
      val (refFeats, refLabels) = collectedDraw(p, matches, maxTrainNeg, seed)
      assert(labels.count(_ == 0.0) == maxTrainNeg, ds.name)
      assert(labels == refLabels, ds.name)
      assert(bits(feats) == bits(refFeats), ds.name)
      p.drA.unpersist(); p.drB.unpersist()
    }
  }

  /** The blocked-negative draw as `blockedTrainingSet` made it before its
    * candidates were decoded into primitive arrays: tuples collected,
    * `filterNot(gold)`, `Random(seed).shuffle` and `take(maxTrainNeg)`.
    */
  private def collectedDraw(p: BlockingExperiments.BlockPrep, matches: IndexedSeq[(Long, Long)], maxTrainNeg: Int,
      seed: Long): (IndexedSeq[Array[Double]], IndexedSeq[Double]) = {
    import spark.implicits._
    val cands = RandomHyperplaneLSH.candidatePairs(
      spark, p.drA, p.drB, RandomHyperplaneLSH.model(p.dim, 4, 10, seed = 31)).as[(Long, Long)].collect()
    val (vecsA, vecsB) = (TupleEmbedder.collectVecs(p.drA), TupleEmbedder.collectVecs(p.drB))
    val gold = matches.toSet
    val negSample = new scala.util.Random(seed).shuffle(cands.filterNot(gold).toIndexedSeq).take(maxTrainNeg)
    val pairs = matches.map((_, 1.0)) ++ negSample.map((_, 0.0))
    (pairs.map { case ((idA, idB), _) => Similarity.cosineVector(vecsA(idA), vecsB(idB)) }, pairs.map(_._2))
  }

  /** Runs `body` under the job group `group` and returns its result with the
    * starts and ends of the group's jobs, in the listener bus's order, which
    * is the order in which the scheduler posted them. The bus is drained
    * (through perfbench's bridge to Spark's package-private bus) before the
    * events are read.
    */
  private def jobEvents[T](group: String)(body: => T): (Try[T], Seq[JobEvent]) = {
    val sc = spark.sparkContext
    val events = mutable.ArrayBuffer.empty[JobEvent]
    val descriptions = mutable.Map.empty[Int, String]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = events.synchronized {
        if (Option(e.properties).exists(_.getProperty("spark.jobGroup.id") == group)) {
          val description = Option(e.properties.getProperty("spark.job.description")).getOrElse("")
          descriptions(e.jobId) = description
          events += JobEvent(e.jobId, started = true, description)
        }
      }
      override def onJobEnd(e: SparkListenerJobEnd): Unit = events.synchronized {
        descriptions.get(e.jobId).foreach(d => events += JobEvent(e.jobId, started = false, d))
      }
    }
    sc.addSparkListener(listener)
    try {
      // Threads started by endToEnd inherit the caller's job group.
      sc.setJobGroup(group, group)
      val result = try Try(body) finally sc.clearJobGroup()
      org.apache.spark.PerfbenchBus.drain(sc)
      (result, events.synchronized(events.toList))
    } finally sc.removeSparkListener(listener)
  }

  test("endToEnd without gold matches fails with the dataset's name and leaves no job running") {
    val ds = ERDatasets.restFZ(spark)
    // A filter Spark cannot fold away, so the gold collect runs a job.
    val p = BlockingExperiments.prepareBlocks(spark, ds.copy(matches = ds.matches.where(col("idA") < 0)))
    val sc = spark.sparkContext
    // Threads started by endToEnd would inherit the caller's job group.
    val group = "endToEnd without gold matches"
    sc.setJobGroup(group, group)
    val e = try intercept[IllegalArgumentException](
      BlockingExperiments.endToEnd(spark, p, Seq((4, 10)), DeepER.Config(folds = 1, epochs = 1), maxTrainNeg = 500))
      finally sc.clearJobGroup()
    assert(e.getMessage.contains(s"dataset ${ds.name} has no gold matches"), e.getMessage)
    // Drain the listener bus (through perfbench's bridge to Spark's
    // package-private bus) before reading the status tracker; the second
    // look, a moment later, catches a job that had not yet started.
    def groupJobs() = { org.apache.spark.PerfbenchBus.drain(sc); sc.statusTracker.getJobIdsForGroup(group).toSet }
    val atReturn = groupJobs()
    assert(atReturn.nonEmpty, "the gold collect did not run before endToEnd returned")
    assert(sc.statusTracker.getActiveJobIds().isEmpty)
    Thread.sleep(300)
    assert(groupJobs() == atReturn, "a job of endToEnd started after it returned")
    p.drA.unpersist(); p.drB.unpersist()
  }

  test("sweep over mixed configs equals blockingMetrics on a fresh join per config") {
    val ds = ERDatasets.restFZ(spark)
    val p = BlockingExperiments.prepareBlocks(spark, ds)
    val configs = Seq((1, 10), (4, 1), (4, 4), (4, 10), (4, 10))
    val expected = configs.map { case (k, l) =>
      val m = RandomHyperplaneLSH.model(p.dim, k, l, seed = 23)
      val cands = RandomHyperplaneLSH.candidatesWith(spark, p.drA, p.drB, m, Seq(), mp = 0)
      RandomHyperplaneLSH.blockingMetrics(cands, ds.matches, ds.nA, ds.nB, Seq(l)).head
    }
    assert(BlockingExperiments.sweep(spark, p, configs) == expected)
    p.drA.unpersist(); p.drB.unpersist()
  }

  test("sweep and endToEnd reject L = 0 beside a valid L of the same K on the driver, before any job") {
    val p = BlockingExperiments.prepareBlocks(spark, ERDatasets.restFZ(spark))
    val configs = Seq((4, 10), (4, 0))
    val runs = Seq[(String, () => Any)](
      "sweep" -> (() => BlockingExperiments.sweep(spark, p, configs)),
      "endToEnd" -> (() => BlockingExperiments.endToEnd(spark, p, configs, DeepER.Config(folds = 1, epochs = 1),
        maxTrainNeg = 500)))
    for ((name, run) <- runs) {
      val (result, events) = jobEvents(s"$name with L = 0")(run())
      val e = intercept[IllegalArgumentException](result.get)
      assert(e.getMessage.contains("L must be at least 1, got L = 0"), s"$name: ${e.getMessage}")
      assert(events.isEmpty, s"$name started jobs: $events")
    }
    p.drA.unpersist(); p.drB.unpersist()
  }

  test("endToEnd runs one similarity join per K, at its largest L; a repeated config returns equal rows") {
    val p = BlockingExperiments.prepareBlocks(spark, ERDatasets.restFZ(spark))
    val configs = Seq((4, 1), (4, 4), (4, 10), (10, 10), (4, 4))
    val (result, events) = jobEvents("endToEnd per K")(
      BlockingExperiments.endToEnd(spark, p, configs, DeepER.Config(folds = 1, epochs = 1), maxTrainNeg = 500))
    val rows = result.get
    p.drA.unpersist(); p.drB.unpersist()
    assert(events.filter(_.similarity).map(_.description).distinct.sorted ==
      Seq((10, 10), (4, 10)).map { case (k, l) => s"${BlockingExperiments.SimilarityJobs} ($k, $l)" })
    assert(rows.map(r => (r._1, r._2)) == configs)
    assert(rows(4) == rows(1))
    // A smaller L keeps a subset of the larger L's predictions.
    assert(rows(0)._4 <= rows(1)._4 && rows(1)._4 <= rows(2)._4, rows)
  }
}
