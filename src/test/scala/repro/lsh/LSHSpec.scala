package repro.lsh

import repro.{Oracle, SparkSpec}
import repro.nn.Linalg
import org.apache.spark.sql.Row
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

class LSHSpec extends SparkSpec {

  private def drDf(vs: Seq[(Long, Array[Double])]) = {
    val schema = StructType(Seq(
      StructField("id", LongType, false),
      StructField("dr", ArrayType(DoubleType), false)))
    spark.createDataFrame(
      spark.sparkContext.parallelize(vs.map(v => Row(v._1, v._2.toSeq)), 2), schema)
  }

  private def randVecs(n: Int, dim: Int, seed: Long): Seq[(Long, Array[Double])] = {
    val rng = new scala.util.Random(seed)
    (0L until n.toLong).map(i => i -> Linalg.unit(Array.fill(dim)(rng.nextGaussian())))
  }

  test("model is deterministic in seed with unit-norm hyperplanes") {
    val m1 = RandomHyperplaneLSH.model(10, 4, 3, seed = 1)
    val m2 = RandomHyperplaneLSH.model(10, 4, 3, seed = 1)
    assert(m1.planes(0)(0).sameElements(m2.planes(0)(0)))
    assert(math.abs(Linalg.norm(m1.planes(2)(3)) - 1.0) < 1e-9)
  }

  test("model rejects K > 30") {
    val e = intercept[IllegalArgumentException](RandomHyperplaneLSH.model(10, 31, 1))
    assert(e.getMessage.contains("got K = 31"), e.getMessage)
  }

  test("model rejects K < 1 and L < 1, naming the value") {
    val k0 = intercept[IllegalArgumentException](RandomHyperplaneLSH.model(10, 0, 1))
    assert(k0.getMessage.contains("got K = 0"), k0.getMessage)
    val l0 = intercept[IllegalArgumentException](RandomHyperplaneLSH.model(10, 4, 0))
    assert(l0.getMessage.contains("got L = 0"), l0.getMessage)
  }

  test("signature is a K-bit code and deterministic") {
    val m = RandomHyperplaneLSH.model(5, 8, 2, seed = 2)
    val v = Array(1.0, -0.5, 0.2, 0.0, 0.3)
    val c = m.signature(v, 0)
    assert(c >= 0 && c < (1 << 8))
    assert(c == m.signature(v, 0))
  }

  test("identical vectors share every signature; opposite vectors share none") {
    val m = RandomHyperplaneLSH.model(6, 10, 4, seed = 3)
    val v = Linalg.unit(Array(1.0, 2.0, -1.0, 0.5, 0.1, -0.2))
    val w = Linalg.scale(v, -1.0)
    (0 until 4).foreach { l =>
      assert(m.signature(v, l) == m.signature(v, l))
      // Every bit flips for the antipodal vector.
      assert((m.signature(v, l) ^ m.signature(w, l)) == (1 << 10) - 1)
    }
  }

  test("collision probability decreases with angle (LSH property, Definition 1)") {
    val dim = 20
    val m = RandomHyperplaneLSH.model(dim, 1, 400, seed = 4)
    val rng = new scala.util.Random(5)
    val v = Linalg.unit(Array.fill(dim)(rng.nextGaussian()))
    def perturbed(eps: Double) = {
      val w = v.clone()
      Linalg.axpy(w, Linalg.unit(Array.fill(dim)(rng.nextGaussian())), eps)
      Linalg.unit(w)
    }
    def collisions(w: Array[Double]) =
      (0 until 400).count(l => m.signature(v, l) == m.signature(w, l))
    val near = collisions(perturbed(0.1))
    val far = collisions(perturbed(2.0))
    assert(near > far, s"near=$near far=$far")
    assert(near > 350) // P[collision] = 1 - theta/pi, theta small
  }

  test("signatures explodes to L rows per tuple") {
    val m = RandomHyperplaneLSH.model(4, 6, 3, seed = 6)
    val df = drDf(randVecs(10, 4, 7))
    val sigs = RandomHyperplaneLSH.signatures(spark, df, m)
    assert(sigs.count() == 30)
    assert(sigs.select("table").distinct().count() == 3)
  }

  test("candidatePairs equals the DuckDB bucket join (oracle check)") {
    val m = RandomHyperplaneLSH.model(6, 4, 2, seed = 8)
    val a = drDf(randVecs(30, 6, 9))
    val b = drDf(randVecs(40, 6, 10))
    val spark_ = spark
    val cands = RandomHyperplaneLSH.candidatePairs(spark_, a, b, m)
      .orderBy("idA", "idB")
    val sa = RandomHyperplaneLSH.signatures(spark_, a, m)
      .withColumnRenamed("id", "idA").withColumnRenamed("table", "tbl")
    val sb = RandomHyperplaneLSH.signatures(spark_, b, m)
      .withColumnRenamed("id", "idB").withColumnRenamed("table", "tbl")
    Oracle.assertEquivalent(
      cands,
      "SELECT DISTINCT sa.idA AS idA, sb.idB AS idB FROM sa JOIN sb ON sa.tbl = sb.tbl AND sa.code = sb.code ORDER BY idA, idB",
      "sa" -> sa, "sb" -> sb)
  }

  test("candidatesWith equals the DuckDB DISTINCT bucket join, without duplicates (K in {1,4}, L in {1,3})") {
    val a = drDf(randVecs(30, 6, 9))
    val b = drDf(randVecs(40, 6, 10))
    // mp > 0 probes every code within Hamming distance mp (multi-probe).
    for (k <- Seq(1, 4); l <- Seq(1, 3); mp <- 0 to 2) {
      val m = RandomHyperplaneLSH.model(6, k, l, seed = 8)
      val cands = RandomHyperplaneLSH.candidatesWith(spark, a, b, m, Seq(), mp)
      val sa = RandomHyperplaneLSH.signatures(spark, a, m)
        .withColumnRenamed("id", "idA").withColumnRenamed("table", "tbl")
      val sb = RandomHyperplaneLSH.signatures(spark, b, m)
        .withColumnRenamed("id", "idB").withColumnRenamed("table", "tbl")
      // The oracle compares rows with multiplicity, so a duplicate pair fails it.
      Oracle.assertEquivalent(
        cands,
        "SELECT DISTINCT sa.idA AS idA, sb.idB AS idB FROM sa JOIN sb ON sa.tbl = sb.tbl " +
          s"AND bit_count(xor(CAST(sa.code AS INTEGER), CAST(sb.code AS INTEGER))) <= $mp",
        "sa" -> sa, "sb" -> sb)
    }
  }

  test("candidatesWith rejects mp = 3 on the driver, naming the value") {
    val m = RandomHyperplaneLSH.model(6, 4, 1, seed = 8)
    val e = intercept[IllegalArgumentException](
      RandomHyperplaneLSH.candidatesWith(spark, drDf(Nil), drDf(Nil), m, Seq(), mp = 3))
    assert(e.getMessage.contains("got mp = 3"), e.getMessage)
  }

  test("candidatesWith carries each tuple's own column values") {
    val va = randVecs(25, 5, 30); val vb = randVecs(35, 5, 31)
    def tagged(vs: Seq[(Long, Array[Double])]) = drDf(vs).withColumn("tag", col("id") * 10 + 3)
    val m = RandomHyperplaneLSH.model(5, 2, 3, seed = 32)
    val rows = RandomHyperplaneLSH.candidatesWith(spark, tagged(va), tagged(vb), m, Seq("dr", "tag"), mp = 0).collect()
    assert(rows.nonEmpty)
    val (drA, drB) = (va.toMap, vb.toMap)
    rows.foreach { r =>
      val (idA, idB) = (r.getAs[Long]("idA"), r.getAs[Long]("idB"))
      assert(r.getSeq[Double](r.fieldIndex("drA")) == drA(idA).toSeq)
      assert(r.getSeq[Double](r.fieldIndex("drB")) == drB(idB).toSeq)
      assert(r.getAs[Long]("tagA") == idA * 10 + 3)
      assert(r.getAs[Long]("tagB") == idB * 10 + 3)
    }
    assert(rows.head.schema.fieldNames.toSeq == Seq("idA", "idB", "drA", "tagA", "drB", "tagB"))
  }

  test("candidatesWith of an empty B side has no rows") {
    val m = RandomHyperplaneLSH.model(6, 1, 3, seed = 33)
    val cands = RandomHyperplaneLSH.candidatesWith(spark, drDf(randVecs(20, 6, 34)), drDf(Nil), m, Seq("dr"), mp = 0)
    assert(cands.count() == 0)
  }

  test("an exact duplicate is always a candidate") {
    val m = RandomHyperplaneLSH.model(8, 10, 2, seed = 11)
    val vs = randVecs(20, 8, 12)
    val a = drDf(vs)
    val b = drDf(Seq((100L, vs.head._2))) // copy of tuple 0
    val cands = RandomHyperplaneLSH.candidatePairs(spark, a, b, m).collect()
    assert(cands.exists(r => r.getLong(0) == 0L && r.getLong(1) == 100L))
  }

  test("blockingMetrics computes PC and RR on a hand-built case") {
    val cands = spark.createDataFrame(
      spark.sparkContext.parallelize(Seq(Row(0L, 0L), Row(1L, 5L)), 1),
      StructType(Seq(StructField("idA", LongType, false), StructField("idB", LongType, false))))
    val gold = spark.createDataFrame(
      spark.sparkContext.parallelize(Seq(Row(0L, 0L), Row(2L, 2L)), 1),
      StructType(Seq(StructField("idA", LongType, false), StructField("idB", LongType, false))))
    val (pc, rr) = RandomHyperplaneLSH.blockingMetrics(cands, gold, nA = 10, nB = 10)
    assert(pc == 0.5) // 1 of 2 gold pairs survives
    assert(rr == 0.02) // 2 of 100 pairs compared
  }

  test("completeness gives PC and |candidates| as DuckDB does; blockingMetrics and recall read it") {
    val rng = new scala.util.Random(35)
    def pairs(n: Int) = Seq.fill(n)((rng.nextInt(12).toLong, rng.nextInt(15).toLong)).distinct
    def pairDf(ps: Seq[(Long, Long)]) = spark.createDataFrame(
      spark.sparkContext.parallelize(ps.map { case (a, b) => Row(a, b) }, 3),
      StructType(Seq(StructField("idA", LongType, false), StructField("idB", LongType, false))))
    val (cands, gold) = (pairs(90), pairs(40))
    val (c, g) = (pairDf(cands), pairDf(gold))
    val (pc, nCand) = RandomHyperplaneLSH.completeness(c, g)
    Oracle.assertEquivalent(
      spark.createDataFrame(Seq((pc, nCand))).toDF("pc", "candidates"),
      "SELECT CAST((SELECT count(*) FROM c JOIN g ON c.idA = g.idA AND c.idB = g.idB) AS DOUBLE) / " +
        "(SELECT count(*) FROM g) AS pc, (SELECT count(*) FROM c) AS candidates",
      "c" -> c, "g" -> g)
    val hits = cands.count(gold.toSet)
    assert(hits > 0 && hits < gold.size, hits)
    assert((pc, nCand) == (hits.toDouble / gold.size, cands.size.toLong))
    assert(RandomHyperplaneLSH.blockingMetrics(c, g, nA = 12, nB = 15) ==
      (hits.toDouble / gold.size, cands.size.toDouble / (12.0 * 15.0)))
    assert(MultiProbeLSH.recall(c, g) == hits.toDouble / gold.size)
  }

  test("increasing K reduces RR (Figure 10-b trend)") {
    val vs = randVecs(120, 10, 13)
    val a = drDf(vs.take(60)); val b = drDf(vs.drop(60))
    def rr(k: Int) = {
      val m = RandomHyperplaneLSH.model(10, k, 2, seed = 14)
      RandomHyperplaneLSH.candidatePairs(spark, a, b, m).count().toDouble / (60.0 * 60.0)
    }
    assert(rr(8) < rr(2))
  }

  test("increasing L increases candidate coverage (Figure 10-c trend)") {
    val vs = randVecs(120, 10, 15)
    val a = drDf(vs.take(60)); val b = drDf(vs.drop(60))
    def nCands(l: Int) = {
      val m = RandomHyperplaneLSH.model(10, 6, l, seed = 16)
      RandomHyperplaneLSH.candidatePairs(spark, a, b, m).count()
    }
    assert(nCands(8) >= nCands(1))
  }
}

class MultiProbeLSHSpec extends SparkSpec {
  import org.apache.spark.sql.Row

  private def drDf(vs: Seq[(Long, Array[Double])]) = {
    val schema = StructType(Seq(
      StructField("id", LongType, false),
      StructField("dr", ArrayType(DoubleType), false)))
    spark.createDataFrame(
      spark.sparkContext.parallelize(vs.map(v => Row(v._1, v._2.toSeq)), 2), schema)
  }

  private def randVecs(n: Int, dim: Int, seed: Long): Seq[(Long, Array[Double])] = {
    val rng = new scala.util.Random(seed)
    (0L until n.toLong).map(i => i -> Linalg.unit(Array.fill(dim)(rng.nextGaussian())))
  }

  test("probeCodes counts: 1, 1+K, 1+K+K(K-1)/2") {
    assert(MultiProbeLSH.probeCodes(5, 4, 0).size == 1)
    assert(MultiProbeLSH.probeCodes(5, 4, 1).size == 5)
    assert(MultiProbeLSH.probeCodes(5, 4, 2).size == 11)
  }

  test("probeCodes are within the requested Hamming distance") {
    val codes = MultiProbeLSH.probeCodes(0b1010, 6, 2)
    codes.foreach(c => assert(Integer.bitCount(c ^ 0b1010) <= 2))
    assert(codes.distinct.size == codes.size)
  }

  test("probeCodes rejects mp > 2") {
    val e = intercept[IllegalArgumentException](MultiProbeLSH.probeCodes(0, 4, 3))
    assert(e.getMessage.contains("got mp = 3"), e.getMessage)
  }

  test("topNCandidates keeps at most N candidates per A tuple") {
    val m = RandomHyperplaneLSH.model(8, 4, 1, seed = 20)
    val a = drDf(randVecs(20, 8, 21))
    val b = drDf(randVecs(50, 8, 22))
    val cands = MultiProbeLSH.topNCandidates(spark, a, b, m, mp = 1, topN = 3)
    val maxPerA = cands.groupBy("idA").count().agg(max("count")).head().getLong(0)
    assert(maxPerA <= 3)
  }

  test("similarity column is the DR cosine") {
    val v = Linalg.unit(Array.fill(8)(1.0))
    val m = RandomHyperplaneLSH.model(8, 2, 1, seed = 23)
    val a = drDf(Seq((0L, v)))
    val b = drDf(Seq((1L, v)))
    val cands = MultiProbeLSH.topNCandidates(spark, a, b, m, mp = 0, topN = 5).collect()
    assert(cands.length == 1)
    assert(math.abs(cands.head.getDouble(2) - 1.0) < 1e-9)
  }

  test("multi-probe recovers duplicates that plain L=1 blocking misses (Figure 12 trend)") {
    val rng = new scala.util.Random(24)
    val dim = 16
    val base = randVecs(150, dim, 25)
    val dupes = base.take(80).map { case (i, v) =>
      val w = v.clone(); Linalg.axpy(w, Linalg.unit(Array.fill(dim)(rng.nextGaussian())), 0.35)
      (i + 1000L, Linalg.unit(w))
    }
    val a = drDf(base)
    val b = drDf(dupes)
    val gold = spark.createDataFrame(
      spark.sparkContext.parallelize(base.take(80).map { case (i, _) => Row(i, i + 1000L) }, 2),
      StructType(Seq(StructField("idA", LongType, false), StructField("idB", LongType, false))))
    val m = RandomHyperplaneLSH.model(dim, 10, 1, seed = 26)
    def recallAt(mp: Int, topN: Int) = MultiProbeLSH.recall(
      MultiProbeLSH.topNCandidates(spark, a, b, m, mp, topN), gold)
    val r0 = recallAt(0, 20); val r2 = recallAt(2, 20)
    assert(r2 > r0, s"mp0=$r0 mp2=$r2")
    // One ranking per mp gives the recall of each top-N cut exactly.
    val ns = Seq(1, 3, 20)
    for (mp <- Seq(0, 2))
      assert(MultiProbeLSH.recallAtTopN(spark, a, b, m, mp, ns, gold) == ns.map(recallAt(mp, _)), s"mp = $mp")
  }

  test("topNCandidates ranks the candidatesWith pairs as DuckDB's row_number by (sim desc, idB)") {
    // Each B vector appears under three ids, so every A tuple sees ties in
    // sim that only the idB tie-break orders.
    val base = randVecs(15, 8, 36)
    val b = drDf(base.flatMap { case (i, v) => Seq((30 + i, v), (i, v), (15 + i, v)) })
    val a = drDf(randVecs(20, 8, 37))
    val cos = udf((x: Seq[Double], y: Seq[Double]) => Linalg.cosine(x.toArray, y.toArray))
    for (mp <- Seq(0, 2)) {
      val m = RandomHyperplaneLSH.model(8, 4, 2, seed = 38)
      val cs = RandomHyperplaneLSH.candidatesWith(spark, a, b, m, Seq("dr"), mp)
        .select(col("idA"), col("idB"), cos(col("drA"), col("drB")).as("sim"))
      Oracle.assertEquivalent(
        MultiProbeLSH.topNCandidates(spark, a, b, m, mp, topN = 4),
        "SELECT idA, idB, CAST(sim AS DOUBLE) AS sim FROM (SELECT idA, idB, sim, row_number() OVER (PARTITION BY idA " +
          "ORDER BY CAST(sim AS DOUBLE) DESC, CAST(idB AS BIGINT)) AS rk FROM cs) WHERE rk <= 4",
        "cs" -> cs)
    }
  }

  test("recall of empty candidate set is 0 and of empty gold is 1") {
    val empty = drDf(Nil)
    val m = RandomHyperplaneLSH.model(4, 2, 1, seed = 27)
    val cands = MultiProbeLSH.topNCandidates(spark, empty, empty, m, 0, 5)
    val goldEmpty = spark.createDataFrame(
      spark.sparkContext.parallelize(Seq.empty[Row], 1),
      StructType(Seq(StructField("idA", LongType, false), StructField("idB", LongType, false))))
    assert(MultiProbeLSH.recall(cands, goldEmpty) == 1.0)
  }
}
