package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.ERDataset

/** The network preparation's vocabulary and token indices as they were
  * computed before `DeepER.prepareNet` tokenised each table once on the
  * driver: a distributed tokenise, explode and `distinct()` for the
  * vocabulary, and a driver-side row walk for the indices. Kept in the
  * tests as the reference the new preparation must equal.
  */
object ReferenceTokens {

  def corpusVocab(spark: SparkSession, ds: ERDataset): Seq[String] = {
    import org.apache.spark.sql.functions._
    import spark.implicits._
    val tok = udf((s: String) => Tokenizer.tokenize(s))
    def toks(df: DataFrame) =
      df.select(explode(flatten(array(ds.attrs.map(a => tok(col(a).cast("string"))): _*))).as("t"))
    toks(ds.tableA).union(toks(ds.tableB)).distinct().as[String].collect().toSeq.sorted
  }

  def collectTokenIndices(
      ds: ERDataset, index: Map[String, Int], unkIdx: Int, maxTokensPerAttr: Int,
  ): (Map[Long, Array[Array[Int]]], Map[Long, Array[Array[Int]]]) = {
    def coll(df: DataFrame) =
      df.collect().map { r =>
        val id = r.getLong(r.fieldIndex("id"))
        val arrs = ds.attrs.map { a =>
          val v = r.getAs[Any](a)
          Tokenizer.tokenize(if (v == null) null else v.toString)
            .take(maxTokensPerAttr)
            .map(t => index.getOrElse(t, unkIdx))
            .toArray
        }.toArray
        id -> arrs
      }.toMap
    (coll(ds.tableA), coll(ds.tableB))
  }
}
