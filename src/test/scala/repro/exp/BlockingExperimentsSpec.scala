package repro.exp

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.{DeepER, Similarity}
import repro.data.ERDatasets
import repro.lsh.RandomHyperplaneLSH

class BlockingExperimentsSpec extends SparkSpec {

  test("endToEnd precision/recall equal the candidatePairs + vecs joins + matches join formula") {
    val ds = ERDatasets.restFZ(spark)
    val p = BlockingExperiments.prepareBlocks(spark, ds)
    val cfg = DeepER.Config(folds = 1, epochs = 3)
    val configs = Seq((1, 2), (4, 3), (10, 2))
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
    val before = sc.getPersistentRDDs.keySet
    val p = BlockingExperiments.prepareBlocks(spark, ERDatasets.restFZ(spark))
    BlockingExperiments.endToEnd(spark, p, Seq((4, 3), (10, 2)), DeepER.Config(folds = 1, epochs = 1), maxTrainNeg = 500)
    assert(sc.getPersistentRDDs.keySet.diff(before).size == 2)
    p.drA.unpersist(); p.drB.unpersist()
    assert(sc.getPersistentRDDs.keySet == before)
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

  test("kAndLSeries measures the distinct configs of both series in one call") {
    var calls = Seq.empty[Seq[(Int, Int)]]
    val (kSeries, lSeries) = BlockingExperiments.kAndLSeries(Seq(1, 4, 10), Seq(1, 4, 10)) { configs =>
      calls :+= configs
      configs.map { case (k, l) => s"$k,$l" }
    }
    assert(calls == Seq(Seq((1, 10), (4, 10), (10, 10), (4, 1), (4, 4))))
    assert(kSeries == Seq("1,10", "4,10", "10,10"))
    assert(lSeries == Seq("4,1", "4,4", "4,10"))
  }
}
