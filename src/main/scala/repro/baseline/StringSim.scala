package repro.baseline

/** Classical symbolic string-similarity functions — the feature pool a
  * Magellan-style ER system engineers its features from (the paper's
  * observation (ii): experts pick from pools like SimMetrics' 29
  * functions). All return values in [0, 1], higher = more similar; both
  * inputs null/empty → 1.0 (agreement on absence), one-sided → 0.0.
  * The set measures take token sets (`Tokenizer.tokenize(s).toSet`) and
  * the trigram measure takes [[trigrams]] of each string, which
  * [[MagellanLike]] precomputes once per tuple.
  */
object StringSim {

  private def bothEmpty(a: String, b: String) = (a == null || a.isEmpty) && (b == null || b.isEmpty)
  private def oneEmpty(a: String, b: String) = (a == null || a.isEmpty) != (b == null || b.isEmpty)

  /** Jaro similarity. */
  def jaro(a: String, b: String): Double = {
    if (bothEmpty(a, b)) return 1.0
    if (oneEmpty(a, b) || a.isEmpty || b.isEmpty) return 0.0
    val window = math.max(0, math.max(a.length, b.length) / 2 - 1)
    val aM = new Array[Boolean](a.length); val bM = new Array[Boolean](b.length)
    var m = 0
    for (i <- a.indices) {
      val lo = math.max(0, i - window); val hi = math.min(b.length - 1, i + window)
      var j = lo
      var found = false
      while (j <= hi && !found) {
        if (!bM(j) && a(i) == b(j)) { aM(i) = true; bM(j) = true; m += 1; found = true }
        j += 1
      }
    }
    if (m == 0) return 0.0
    var t = 0; var k = 0
    for (i <- a.indices if aM(i)) {
      while (!bM(k)) k += 1
      if (a(i) != b(k)) t += 1
      k += 1
    }
    (m.toDouble / a.length + m.toDouble / b.length + (m - t / 2.0) / m) / 3.0
  }

  /** Jaro-Winkler with the standard 0.1 prefix scale, prefix cap 4. */
  def jaroWinkler(a: String, b: String): Double = {
    val j = jaro(a, b)
    if (a == null || b == null) return j
    val prefix = a.zip(b).take(4).takeWhile { case (x, y) => x == y }.size
    j + prefix * 0.1 * (1.0 - j)
  }

  /** Jaccard coefficient of two token sets. */
  def jaccard(a: Set[String], b: Set[String]): Double =
    if (a.isEmpty && b.isEmpty) 1.0
    else if (a.isEmpty || b.isEmpty) 0.0
    else a.intersect(b).size.toDouble / a.union(b).size

  /** Overlap coefficient of two token sets. */
  def overlap(a: Set[String], b: Set[String]): Double =
    if (a.isEmpty && b.isEmpty) 1.0
    else if (a.isEmpty || b.isEmpty) 0.0
    else a.intersect(b).size.toDouble / math.min(a.size, b.size)

  def trigrams(s: String): Map[String, Int] =
    if (s == null || s.length < 3) Map.empty
    else ("  " + s.toLowerCase + "  ").sliding(3).toSeq.groupBy(identity).map { case (g, o) => g -> o.size }

  /** Cosine similarity of two character-trigram count vectors (see
    * [[trigrams]]; the classical prefilter of Köpcke et al. used in the
    * paper's setup section). A string shorter than 3 characters has no
    * trigrams, so two such strings score 1.0, like two empty ones.
    */
  def trigramCosine(a: Map[String, Int], b: Map[String, Int]): Double =
    if (a.isEmpty && b.isEmpty) 1.0
    else if (a.isEmpty || b.isEmpty) 0.0
    else {
      val dot = a.keysIterator.map(k => a(k).toDouble * b.getOrElse(k, 0)).sum
      val na = math.sqrt(a.valuesIterator.map(v => v.toDouble * v).sum)
      val nb = math.sqrt(b.valuesIterator.map(v => v.toDouble * v).sum)
      dot / (na * nb)
    }

  /** Exact match indicator. */
  def exact(a: String, b: String): Double =
    if (bothEmpty(a, b)) 1.0 else if (a != null && a == b) 1.0 else 0.0

  /** The number a string spells, if any. */
  def parseNumber(s: String): Option[Double] =
    try { Option(s).map(_.toDouble) } catch { case _: Exception => None }

  /** Relative closeness of two numbers: 1 when equal, falling linearly to
    * 0 as their difference reaches the larger magnitude.
    */
  def numericCloseness(x: Double, y: Double): Double = {
    val d = math.max(math.abs(x), math.abs(y))
    if (d == 0.0) 1.0 else math.max(0.0, 1.0 - math.abs(x - y) / d)
  }
}
