package repro.embedding

import repro.nn.{Linalg, Mat}

/** An immutable word-embedding dictionary (vocab → d-dim vector) with an
  * explicit UNK vector for out-of-vocabulary tokens, mirroring GloVe's
  * special `Unk` token (Section 2.3 of the paper).
  *
  * Small enough to broadcast: benchmark vocabularies here are 10^3–10^5
  * words at d ≤ 300.
  */
final case class EmbeddingDict(dim: Int, vectors: Map[String, Array[Double]],
    sharedUnk: Boolean = false) extends Serializable {

  /** Out-of-vocabulary vector. Two modes:
    *  - default: the zero vector — OOV tokens contribute nothing
    *    (neutral handling);
    *  - `sharedUnk`: one fixed non-zero vector for every OOV token,
    *    GloVe's actual `Unk` semantics (Section 2.3) — all rare words
    *    look identical to each other, the false-similarity failure mode
    *    behind the steep dictionary-coverage drop of Table 5.
    */
  val unk: Array[Double] =
    if (!sharedUnk) new Array[Double](dim)
    else Linalg.unit(Array.tabulate(dim)(i => math.sin(i * 12.9898 + 78.233)))

  def contains(w: String): Boolean = vectors.contains(w)

  def lookup(w: String): Array[Double] = vectors.getOrElse(w, unk)

  /** Fraction of `tokens` found in the dictionary (1.0 for empty input). */
  def coverage(tokens: Seq[String]): Double =
    if (tokens.isEmpty) 1.0
    else tokens.count(contains).toDouble / tokens.size

  /** Add/overwrite entries (used by retrofitting). */
  def ++(more: Map[String, Array[Double]]): EmbeddingDict = {
    require(more.values.forall(_.length == dim), "dimension mismatch")
    copy(vectors = vectors ++ more)
  }

  /** Materialize a trainable embedding table for the given corpus
    * vocabulary. Row layout: one row per vocab word (sorted for
    * determinism) + a final UNK row. Returns (word→row index, table, unkRow).
    */
  def toTable(vocab: Seq[String]): (Map[String, Int], Mat, Int) = {
    val words = vocab.distinct.sorted
    val m = Mat.zeros(words.size + 1, dim)
    words.zipWithIndex.foreach { case (w, i) => m.setRow(i, lookup(w)) }
    m.setRow(words.size, unk)
    (words.zipWithIndex.toMap, m, words.size)
  }
}
