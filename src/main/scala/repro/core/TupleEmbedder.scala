package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.embedding.EmbeddingDict
import repro.nn.Linalg

/** Distributed computation of tuple DRs (Section 2.3): the embedding
  * dictionary is broadcast once and every partition embeds its tuples
  * locally — the `distributed_dataflow` layering of DESIGN.md §2.
  */
object TupleEmbedder {

  /** Algorithm 1 per attribute: mean of the tokens' dictionary vectors;
    * empty/NULL attribute → the UNK (zero) vector.
    */
  def avgAttr(value: String, dict: EmbeddingDict): Array[Double] = {
    val toks = Tokenizer.tokenize(value)
    if (toks.isEmpty) dict.unk
    else Linalg.mean(toks.map(dict.lookup))
  }

  /** Adds to `df`:
    *  - `vecs`: array of per-attribute averaged vectors (m × d), and
    *  - `dr`:   their concatenation, the tuple DR (m·d dims) used by
    *            LSH blocking (Section 4).
    */
  def withAvgVectors(spark: SparkSession, df: DataFrame, attrs: Seq[String], dict: EmbeddingDict): DataFrame = {
    val bDict = spark.sparkContext.broadcast(dict)
    val embed = udf { (vals: Seq[String]) =>
      vals.iterator.map(v => avgAttr(v, bDict.value)).toArray
    }
    df.withColumn("vecs", embed(array(attrs.map(a => col(a).cast("string")): _*)))
      .withColumn("dr", flatten(col("vecs")))
  }

  /** Collect per-tuple attribute vectors to the driver (tables here are
    * thousands of rows; the heavy per-token work still ran distributed).
    */
  def collectAvgVectors(
      spark: SparkSession, df: DataFrame, attrs: Seq[String], dict: EmbeddingDict,
  ): Map[Long, Array[Array[Double]]] =
    collectVecs(withAvgVectors(spark, df, attrs, dict))

  /** The `id` and `vecs` columns of a [[withAvgVectors]] result as a
    * driver-side map. The rows are decoded straight into primitive arrays,
    * not through `Row`s of boxed `Seq[Double]`.
    */
  def collectVecs(df: DataFrame): Map[Long, Array[Array[Double]]] = {
    import df.sparkSession.implicits._
    df.select("id", "vecs").as[(Long, Array[Array[Double]])].collect().toMap
  }
}
