package repro.core

import repro.SparkSpec
import repro.embedding.EmbeddingDict
import repro.nn.Linalg

class TupleEmbedderSpec extends SparkSpec {
  import org.apache.spark.sql.Row
  import org.apache.spark.sql.types._

  private val dict = EmbeddingDict(2, Map(
    "bill" -> Array(1.0, 0.0),
    "gates" -> Array(0.0, 1.0),
    "seattle" -> Array(1.0, 1.0),
  ))

  private def mkDf(rows: Seq[(Long, String, String)]) = {
    val schema = StructType(Seq(
      StructField("id", LongType, false),
      StructField("name", StringType, true),
      StructField("city", StringType, true)))
    spark.createDataFrame(
      spark.sparkContext.parallelize(rows.map(r => Row(r._1, r._2, r._3)), 2), schema)
  }

  test("avgAttr averages token vectors (Algorithm 1)") {
    val v = TupleEmbedder.avgAttr("Bill Gates", dict)
    assert(v.sameElements(Array(0.5, 0.5)))
  }

  test("avgAttr of null/empty is the UNK zero vector") {
    assert(TupleEmbedder.avgAttr(null, dict).forall(_ == 0.0))
    assert(TupleEmbedder.avgAttr("", dict).forall(_ == 0.0))
  }

  test("avgAttr maps OOV tokens to UNK inside the average") {
    val v = TupleEmbedder.avgAttr("bill zzz", dict)
    assert(v.sameElements(Array(0.5, 0.0)))
  }

  test("withAvgVectors adds per-attribute vectors and the concatenated DR") {
    val df = mkDf(Seq((0L, "bill gates", "seattle")))
    val out = TupleEmbedder.withAvgVectors(spark, df, Seq("name", "city"), dict)
    val row = out.select("vecs", "dr").head()
    val vecs = row.getSeq[Seq[Double]](0)
    assert(vecs == Seq(Seq(0.5, 0.5), Seq(1.0, 1.0)))
    assert(row.getSeq[Double](1) == Seq(0.5, 0.5, 1.0, 1.0))
  }

  test("withAvgVectors runs distributed over partitions") {
    val df = mkDf((0L until 100L).map(i => (i, "bill", "seattle")))
    val out = TupleEmbedder.withAvgVectors(spark, df, Seq("name", "city"), dict)
    assert(out.count() == 100)
    assert(out.rdd.getNumPartitions > 1)
  }

  test("withAvgVectors embeds an all-null tuple as UNK vectors") {
    val out = TupleEmbedder.withAvgVectors(spark, mkDf(Seq((0L, null, null))), Seq("name", "city"), dict)
    val row = out.select("vecs", "dr").head()
    val unk = dict.unk.toSeq
    assert(row.getSeq[Seq[Double]](0) == Seq(unk, unk))
    assert(row.getSeq[Double](1) == unk ++ unk)
  }

  test("collectAvgVectors returns a vector matrix per tuple id") {
    val df = mkDf(Seq((5L, "gates", null)))
    val m = TupleEmbedder.collectAvgVectors(spark, df, Seq("name", "city"), dict)
    assert(m(5L)(0).sameElements(Array(0.0, 1.0)))
    assert(m(5L)(1).forall(_ == 0.0))
  }

  test("collectVecs decodes the same doubles as the Row -> Seq -> Array conversion (Rest-FZ + an all-null tuple)") {
    val ds = repro.data.ERDatasets.restFZ(spark)
    val allNull = Row.fromSeq(Long.MaxValue +: ds.attrs.map(_ => null))
    val df = ds.tableA.union(spark.createDataFrame(java.util.List.of(allNull), ds.tableA.schema))
    val withVecs = TupleEmbedder.withAvgVectors(spark, df, ds.attrs, repro.exp.Dicts.gloveLike(ds.forms))
    val viaRows = withVecs.select("id", "vecs").collect()
      .map(r => r.getLong(0) -> r.getSeq[scala.collection.Seq[Double]](1).map(_.toArray).toArray)
      .toMap
    def bits(m: Map[Long, Array[Array[Double]]]) =
      m.map { case (id, vs) => id -> vs.map(_.map(java.lang.Double.doubleToRawLongBits).toSeq).toSeq }
    val typed = TupleEmbedder.collectVecs(withVecs)
    assert(typed.size == ds.nA + 1)
    assert(bits(typed) == bits(viaRows))
    assert(typed(Long.MaxValue).forall(_.forall(_ == 0.0)))
  }

  test("matched tuples have higher DR cosine than unmatched (semantic property)") {
    val dictBig = repro.embedding.SyntheticGlove.build(
      Seq(
        repro.embedding.SurfaceForm("bill", "c1", 1),
        repro.embedding.SurfaceForm("william", "c1", 1),
        repro.embedding.SurfaceForm("prague", "c2", 2),
        repro.embedding.SurfaceForm("tokyo", "c3", 3)),
      dim = 30)
    val a = TupleEmbedder.avgAttr("bill", dictBig)
    val b = TupleEmbedder.avgAttr("william", dictBig)
    val c = TupleEmbedder.avgAttr("tokyo", dictBig)
    assert(Linalg.cosine(a, b) > Linalg.cosine(a, c))
  }
}
