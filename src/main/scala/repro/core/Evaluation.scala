package repro.core

/** Precision / recall / F-measure, the paper's reporting metrics. */
final case class PRF(precision: Double, recall: Double, f1: Double)

object Evaluation {

  def fromCounts(tp: Long, fp: Long, fn: Long): PRF = {
    val p = if (tp + fp == 0) 0.0 else tp.toDouble / (tp + fp)
    val r = if (tp + fn == 0) 0.0 else tp.toDouble / (tp + fn)
    val f = if (p + r == 0) 0.0 else 2 * p * r / (p + r)
    PRF(p, r, f)
  }

  /** Score predicted probabilities against {0,1} labels at `threshold`. */
  def score(probs: Seq[Double], labels: Seq[Double], threshold: Double = 0.5): PRF = {
    require(probs.length == labels.length)
    // Indexed (a no-op for the Vectors callers pass), so the loop reads
    // both sides in place instead of zipping them into tuples.
    val ps = probs.toIndexedSeq; val ys = labels.toIndexedSeq
    var tp = 0L; var fp = 0L; var fn = 0L
    var i = 0
    while (i < ps.length) {
      val pred = ps(i) >= threshold
      val pos = ys(i) >= 0.5
      if (pred && pos) tp += 1
      else if (pred && !pos) fp += 1
      else if (!pred && pos) fn += 1
      i += 1
    }
    fromCounts(tp, fp, fn)
  }

  /** Stratified K-fold index splits: positives and negatives are split
    * separately so every fold keeps the global class ratio (the paper uses
    * 5-fold CV with a fixed duplicate:non-duplicate ratio). With k < 2 a
    * training split would be empty, and with fewer than k positives or
    * negatives a test fold would lack that class and score F1 0, so both
    * are rejected.
    */
  def stratifiedFolds(labels: IndexedSeq[Double], k: Int, seed: Long): Seq[(Seq[Int], Seq[Int])] = {
    require(k >= 2, s"stratified K-fold CV needs at least 2 folds, got $k")
    val rng = new scala.util.Random(seed)
    val pos = rng.shuffle(labels.indices.filter(labels(_) >= 0.5).toIndexedSeq)
    val neg = rng.shuffle(labels.indices.filter(labels(_) < 0.5).toIndexedSeq)
    require(pos.size >= k && neg.size >= k,
      s"stratified $k-fold CV needs at least $k positives and $k negatives, got ${pos.size} and ${neg.size}")
    (0 until k).map { f =>
      val testPos = pos.zipWithIndex.collect { case (i, j) if j % k == f => i }
      val testNeg = neg.zipWithIndex.collect { case (i, j) if j % k == f => i }
      val test = testPos ++ testNeg
      val testSet = test.toSet
      (labels.indices.filterNot(testSet), test)
    }
  }
}
