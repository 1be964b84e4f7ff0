package repro.exp

import org.apache.spark.sql.SparkSession
import repro.data.ERDataset
import repro.embedding.{EmbeddingDict, Retrofit, SurfaceForm, SyntheticGlove}

/** Standard simulated dictionaries for the experiment suite (DESIGN.md §4).
  *
  * Coverage/noise settings encode the paper's dictionary comparisons:
  * corpora trained on more text cover more of the vocabulary and place
  * synonyms more tightly.
  *
  * | paper dictionary        | coverage | formCov | noiseStd |
  * |-------------------------|----------|---------|----------|
  * | GloVe Common-Crawl 840B | 0.97     | 1.0     | 0.15     |
  * | GloVe Wiki 6B           | 0.50     | 0.4     | 0.80     |
  * | Word2Vec GoogleNews     | 0.95     | 1.0     | 0.18     |
  * | FastText (word-level)   | 0.93     | 1.0     | 0.20     |
  * | imprecise (Figure 8)    | 0.97     | 1.0     | 0.90     |
  * | Spanish (translated)    | 0.60     | 1.0     | 1.00     |
  */
object Dicts {
  val dim = 50

  def gloveLike(forms: Seq[SurfaceForm]): EmbeddingDict =
    SyntheticGlove.build(forms, dim, coverage = 0.97, noiseStd = 0.15, seed = 11)

  def gloveWikiLike(forms: Seq[SurfaceForm]): EmbeddingDict =
    SyntheticGlove.build(forms, dim, coverage = 0.5, noiseStd = 0.8, seed = 12, formCoverage = 0.4)

  def word2vecLike(forms: Seq[SurfaceForm]): EmbeddingDict =
    SyntheticGlove.build(forms, dim, coverage = 0.95, noiseStd = 0.18, seed = 13)

  def fastTextLike(forms: Seq[SurfaceForm]): EmbeddingDict =
    SyntheticGlove.build(forms, dim, coverage = 0.93, noiseStd = 0.20, seed = 14)

  /** A deliberately imprecise dictionary (weak semantic relatedness) for
    * the Figure-8 fine-tuning experiment: our synthetic GloVe encodes the
    * ground-truth concepts perfectly, so end-to-end tuning could only
    * ever hurt it — the paper's mechanism (tuning adds task-specific
    * knowledge the pre-training lacks) only shows on imperfect vectors.
    */
  def impreciseLike(forms: Seq[SurfaceForm]): EmbeddingDict =
    SyntheticGlove.build(forms, dim, coverage = 0.97, noiseStd = 0.9, seed = 16)

  def spanishLike(forms: Seq[SurfaceForm]): EmbeddingDict =
    SyntheticGlove.build(forms, dim, coverage = 0.60, noiseStd = 1.00, seed = 15)

  /** Retrofit a dictionary over the dataset's tuple co-occurrence graph
    * (Section 3.2), keeping each word's 8 most frequent neighbours — used
    * where the paper says "we used the vocabulary retroﬁtting to handle
    * words not present in the dictionary".
    */
  def retrofitted(spark: SparkSession, dict: EmbeddingDict, ds: ERDataset): EmbeddingDict = {
    val edges = Retrofit.cooccurrenceEdges(
      spark, ds.tableA.unionByName(ds.tableB), ds.attrs, maxDegree = 8)
    Retrofit.retrofit(dict, edges, iters = 8)
  }
}
