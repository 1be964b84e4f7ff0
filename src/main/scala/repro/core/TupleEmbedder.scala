package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.data.ERDataset
import repro.embedding.EmbeddingDict
import repro.nn.Linalg

/** Tuple DRs by averaging (Algorithm 1, Section 2.3), computed where they
  * are used. LSH blocking keeps its DRs distributed ([[withAvgVectors]]:
  * the dictionary is broadcast once and every partition embeds its tuples
  * locally — the `distributed_dataflow` layering of DESIGN.md §2). The
  * classifier needs every DR on the driver, so [[collectAvgVectors]]
  * collects the raw strings once and averages them there; both run
  * [[avgAttr]], so they give the same doubles.
  */
object TupleEmbedder {

  /** Each tuple's tokens per attribute, by id. */
  type Tokens = Map[Long, Array[Seq[String]]]

  /** Algorithm 1 per attribute: mean of the tokens' dictionary vectors;
    * empty/NULL attribute → the UNK (zero) vector.
    */
  def avgAttr(value: String, dict: EmbeddingDict): Array[Double] = avgTokens(Tokenizer.tokenize(value), dict)

  /** [[avgAttr]] of an attribute already tokenised: no tokens → UNK. */
  def avgTokens(toks: Seq[String], dict: EmbeddingDict): Array[Double] =
    if (toks.isEmpty) dict.unk
    else Linalg.mean(toks.map(dict.lookup))

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

  /** Each tuple of `df` by id, tokenised per attribute of `attrs`, from one
    * collect of its raw strings.
    */
  def collectTokens(df: DataFrame, attrs: Seq[String]): Tokens = tokens(ERDataset.rawValues(df, attrs))

  /** Each tuple's raw attribute strings ([[ERDataset.rawValues]]), tokenised. */
  def tokens(raw: Map[Long, Array[String]]): Tokens = raw.map { case (id, vals) => id -> vals.map(Tokenizer.tokenize) }

  /** Each tuple's per-attribute vectors ([[avgTokens]]) from its tokens. */
  def averages(toks: Tokens, dict: EmbeddingDict): Map[Long, Array[Array[Double]]] =
    toks.map { case (id, attrToks) => id -> attrToks.map(avgTokens(_, dict)) }

  /** Per-tuple attribute vectors on the driver: one collect of the raw
    * strings ([[collectTokens]]), then [[averages]]. Every caller needs all
    * DRs on the driver, so an executor pass would only add a job, a
    * dictionary broadcast and the decoding of `array<array<double>>`.
    * `spark` is unused and kept for existing callers.
    */
  def collectAvgVectors(
      spark: SparkSession, df: DataFrame, attrs: Seq[String], dict: EmbeddingDict,
  ): Map[Long, Array[Array[Double]]] =
    averages(collectTokens(df, attrs), dict)

  /** The `id` and `vecs` columns of a [[withAvgVectors]] result as a
    * driver-side map. The rows are decoded straight into primitive arrays,
    * not through `Row`s of boxed `Seq[Double]`.
    */
  def collectVecs(df: DataFrame): Map[Long, Array[Array[Double]]] = {
    import df.sparkSession.implicits._
    df.select("id", "vecs").as[(Long, Array[Array[Double]])].collect().toMap
  }
}
