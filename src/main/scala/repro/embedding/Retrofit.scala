package repro.embedding

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.Tokenizer
import repro.nn.Linalg

/** Vocabulary retrofitting (Section 3.2), after Faruqui et al. 2014,
  * adapted to relational data: the semantic resource is the *tuple
  * co-occurrence graph* — two words are related if they co-occur in some
  * tuple (optionally restricted to the same attribute).
  *
  * Out-of-vocabulary words are initialized to the average of their 5 most
  * frequent in-vocabulary co-occurring words, then the whole graph is
  * relaxed so every word moves toward its neighbours while anchored words
  * stay close to their pre-trained vector.
  */
object Retrofit {

  /** Faruqui et al.'s weights: the anchor toward a word's pre-trained vector
    * (in-vocabulary words only) and the total pull toward its neighbours.
    */
  private final val Alpha = 1.0
  private final val Beta = 1.0

  /** Distributed co-occurrence edge extraction: for every tuple, every
    * unordered token pair within the listed attributes becomes an edge;
    * edges are counted and the top `maxDegree` neighbours per word kept.
    *
    * @param df     one row per tuple
    * @param attrs  string attribute columns, split by [[Tokenizer.tokenize]]
    */
  def cooccurrenceEdges(
      spark: SparkSession,
      df: DataFrame,
      attrs: Seq[String],
      maxDegree: Int = 10,
  ): Map[String, Seq[String]] = {
    import spark.implicits._
    val tok = udf((s: String) => Tokenizer.tokenize(s))
    val tokensCol = array_distinct(flatten(array(attrs.map(a => tok(col(a).cast("string"))): _*)))
    val pairs = df
      .select(tokensCol.as("toks"))
      .as[Seq[String]]
      .flatMap { toks =>
        for {
          i <- toks.indices
          j <- toks.indices
          if i != j
        } yield (toks(i), toks(j))
      }
      .toDF("w", "nbr")
      .groupBy("w", "nbr")
      .count()
    // Keep only each word's top-maxDegree neighbours *before* collecting:
    // the full co-occurrence graph of a wide product table is millions of
    // edges, the pruned one is |vocab| * maxDegree.
    val w = org.apache.spark.sql.expressions.Window
      .partitionBy("w").orderBy(col("count").desc, col("nbr"))
    pairs
      .withColumn("rank", row_number().over(w))
      .where(col("rank") <= maxDegree)
      .select("w", "nbr")
      .collect()
      .groupBy(_.getString(0))
      .map { case (word, rows) => word -> rows.map(_.getString(1)).toSeq }
  }

  /** Retrofit `dict` over the co-occurrence graph.
    *
    * The neighbour attraction is degree-normalized (Faruqui's
    * β_ij = 1/deg(i)): each word moves toward the *mean* of its
    * neighbours with total weight `Beta`, while anchored (in-vocabulary)
    * words keep weight `Alpha` on their pre-trained vector. Without the
    * normalization a high-degree co-occurrence graph collapses every
    * vector onto the frequent words and destroys the similarity space.
    *
    * @param edges neighbours per word (from [[cooccurrenceEdges]])
    * @param iters relaxation sweeps (converges fast; 10 is plenty)
    * @return dictionary extended with vectors for every word in `edges`
    */
  def retrofit(
      dict: EmbeddingDict,
      edges: Map[String, Seq[String]],
      iters: Int = 10,
  ): EmbeddingDict = {
    val words = edges.keySet ++ edges.values.flatten
    val anchored = words.filter(dict.contains)
    // OOV init: mean of up to 5 in-vocab neighbours (zero if none).
    var q: Map[String, Array[Double]] = words.map { w =>
      val v =
        if (dict.contains(w)) dict.lookup(w).clone()
        else {
          val nbrVecs = edges.getOrElse(w, Nil).filter(dict.contains).take(5).map(dict.lookup)
          if (nbrVecs.isEmpty) new Array[Double](dict.dim) else Linalg.mean(nbrVecs)
        }
      w -> v
    }.toMap

    (1 to iters).foreach { _ =>
      q = words.map { w =>
        val nbrs = edges.getOrElse(w, Nil).filter(q.contains)
        val a = if (anchored(w)) Alpha else 0.0
        val v =
          if (nbrs.isEmpty && a == 0.0) q(w)
          else if (nbrs.isEmpty) dict.lookup(w).clone()
          else {
            val nbrMean = Linalg.mean(nbrs.map(q))
            val acc = new Array[Double](dict.dim)
            if (a > 0) Linalg.axpy(acc, dict.lookup(w), a)
            Linalg.axpy(acc, nbrMean, Beta)
            Linalg.scale(acc, 1.0 / (a + Beta))
          }
        w -> v
      }.toMap
    }
    dict ++ q
  }
}
