package repro.embedding

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.nn.Linalg

/** Mini GloVe (Pennington et al. 2014): learn word embeddings directly
  * from the ER dataset, the paper's "unsupervised representation from
  * datasets" option for specific data with minimal coverage (Section 3.3,
  * e.g. nucleotide k-mers where no pre-trained dictionary applies).
  *
  * Pipeline: distributed windowed co-occurrence counting on Spark, then an
  * AdaGrad fit of the weighted log-bilinear objective
  * `sum f(X_ij) (w_i·w̃_j + b_i + b̃_j - log X_ij)^2` on the driver
  * (vocabularies here are 10^3–10^4, which fits comfortably).
  */
object GloveTrainer {

  /** Windowed co-occurrence counts over a corpus of documents.
    *
    * GloVe weights a co-occurrence at distance d by 1/d. Each weight is
    * summed as the integer lcm(1..window)/d and divided by lcm(1..window)
    * once per pair, so a count is exact and does not depend on the order
    * in which the shuffle returns rows. The map is built in pair order, so
    * iterating it (as [[fit]] does) does not depend on that order either.
    *
    * @param docs   DataFrame with an array<string> column `tokensCol`
    * @param window symmetric context window size, 1 to 20: lcm(1..20) is
    *               232,792,560, so a Long sum has room for 10^10 co-occurrences
    * @return ((wordA, wordB) → count) with wordA < wordB lexicographically
    */
  def cooccurrenceCounts(
      spark: SparkSession,
      docs: DataFrame,
      tokensCol: String,
      window: Int = 5,
  ): Map[(String, String), Double] = {
    import spark.implicits._
    require(window >= 1 && window <= 20, s"cooccurrenceCounts: window must be in 1..20, got $window")
    val lcm = (1 to window).foldLeft(1L)((m, d) => m / BigInt(m).gcd(d).toLong * d)
    docs
      .select(col(tokensCol))
      .as[Seq[String]]
      .flatMap { toks =>
        for {
          i <- toks.indices
          j <- math.max(0, i - window) until i
        } yield {
          val (a, b) = if (toks(j) <= toks(i)) (toks(j), toks(i)) else (toks(i), toks(j))
          ((a, b), lcm / (i - j))
        }
      }
      .toDF("pair", "w")
      .groupBy("pair")
      .agg(sum("w").as("x"))
      .as[((String, String), Long)]
      .collect()
      .map { case (pair, x) => pair -> x.toDouble / lcm }
      .sortBy(_._1) // pairs whose hashes collide iterate in insertion order: make it the sorted one
      .toMap
  }

  /** AdaGrad's learning rate. */
  private final val Lr = 0.05

  /** Fit embeddings from co-occurrence counts with AdaGrad. Each count x is
    * weighted by f(x) = min(1, (x/10)^0.75), as in the GloVe paper.
    *
    * @return dictionary of `w + w̃` vectors, as in the GloVe paper
    */
  def fit(
      counts: Map[(String, String), Double],
      dim: Int = 50,
      epochs: Int = 30,
      seed: Long = 17,
  ): EmbeddingDict = {
    require(counts.nonEmpty, "no co-occurrence counts")
    val vocab = counts.keysIterator.flatMap(p => Iterator(p._1, p._2)).toSeq.distinct.sorted
    val idx = vocab.zipWithIndex.toMap
    val V = vocab.size
    val rng = new scala.util.Random(seed)
    def init() = Array.fill(V, dim)((rng.nextDouble() - 0.5) / dim)
    val w = init(); val wt = init()
    val b = new Array[Double](V); val bt = new Array[Double](V)
    val gw = Array.fill(V, dim)(1.0); val gwt = Array.fill(V, dim)(1.0)
    val gb = Array.fill(V)(1.0); val gbt = Array.fill(V)(1.0)

    // Symmetrize: train on both (i,j) and (j,i).
    val entries = counts.toArray.flatMap { case ((a, bw), x) =>
      val i = idx(a); val j = idx(bw)
      if (i == j) Array((i, j, x)) else Array((i, j, x), (j, i, x))
    }

    (1 to epochs).foreach { _ =>
      val order = rng.shuffle(entries.indices.toIndexedSeq)
      order.foreach { e =>
        val (i, j, x) = entries(e)
        val f = math.min(1.0, math.pow(x / 10.0, 0.75))
        val diff = Linalg.dot(w(i), wt(j)) + b(i) + bt(j) - math.log(x)
        val g = f * diff
        var k = 0
        while (k < dim) {
          val dwi = g * wt(j)(k); val dwj = g * w(i)(k)
          gw(i)(k) += dwi * dwi; gwt(j)(k) += dwj * dwj
          w(i)(k) -= Lr * dwi / math.sqrt(gw(i)(k))
          wt(j)(k) -= Lr * dwj / math.sqrt(gwt(j)(k))
          k += 1
        }
        gb(i) += g * g; gbt(j) += g * g
        b(i) -= Lr * g / math.sqrt(gb(i))
        bt(j) -= Lr * g / math.sqrt(gbt(j))
      }
    }
    EmbeddingDict(dim, vocab.map(v => v -> Linalg.add(w(idx(v)), wt(idx(v)))).toMap)
  }
}
