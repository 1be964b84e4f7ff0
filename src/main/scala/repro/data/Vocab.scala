package repro.data

import repro.embedding.SurfaceForm

/** A token with its latent concept: two tokens match semantically iff
  * their concepts are equal, even when the surface forms differ
  * ("Bill" vs "William"). The generators build records out of [[Tok]]s so
  * the gold standard is defined at the concept level.
  */
final case class Tok(concept: String, form: String) extends Serializable

/** A pool of concepts with Zipf-distributed frequency and 1..nForms
  * lexically unrelated surface forms per concept (synonyms) plus an
  * abbreviation form (prefix + '.'), mirroring real-world name variation.
  *
  * Pseudo-words are built from syllables so they look like natural-language
  * tokens and are pairwise distinct across pools (the pool prefix seeds the
  * syllable choice).
  */
final class WordPool(
    val prefix: String,
    val nConcepts: Int,
    val nForms: Int = 2,
    seed: Long = 0,
) extends Serializable {
  private val syllables = Vector(
    "ra", "ke", "mi", "to", "la", "ve", "zu", "no", "pi", "sa",
    "dor", "len", "car", "bex", "tun", "gos", "fir", "hul", "jam", "wex")

  private def pseudoWord(rng: scala.util.Random, syls: Int): String =
    (1 to syls).map(_ => syllables(rng.nextInt(syllables.size))).mkString

  /** concept id → surface forms; form 0 is canonical.
    *
    * Every word starts with the pool prefix so vocabularies of different
    * pools never collide (the syllable space alone is too small for global
    * uniqueness); within a pool a `seen` set enforces it. Abbreviations
    * are the shortest dotted prefix of the canonical form (at least three
    * characters past the pool prefix) that is still unique in the pool —
    * since they embed the prefix they are globally unique as well.
    */
  val formsOf: Vector[Vector[String]] = {
    val rng = new scala.util.Random(prefix.hashCode.toLong * 31 + seed)
    val seen = scala.collection.mutable.Set[String]()
    Vector.tabulate(nConcepts) { _ =>
      val fs = Vector.fill(nForms) {
        var w = prefix + pseudoWord(rng, 2 + rng.nextInt(2))
        while (seen(w)) w = prefix + pseudoWord(rng, 2 + rng.nextInt(2))
        seen += w
        w
      }
      var cut = prefix.length + 3
      while (seen(fs.head.take(cut) + ".") && cut < fs.head.length) cut += 1
      val abbrev = fs.head.take(cut) + "."
      if (seen(abbrev)) fs // no unique dotted prefix left; concept has no abbreviation
      else { seen += abbrev; fs :+ abbrev }
    }
  }

  def conceptId(i: Int): String = s"$prefix$i"

  /** Zipf CDF, exponent 0.9, over concept ranks (concept 0 = most frequent). */
  private val cdf: Array[Double] = {
    val w = Array.tabulate(nConcepts)(k => 1.0 / math.pow(k + 1.0, 0.9))
    val total = w.sum
    val c = new Array[Double](nConcepts)
    var acc = 0.0
    (0 until nConcepts).foreach { i => acc += w(i) / total; c(i) = acc }
    c
  }

  def drawConcept(rng: scala.util.Random): Int = {
    val u = rng.nextDouble()
    val i = java.util.Arrays.binarySearch(cdf, u)
    math.min(nConcepts - 1, if (i >= 0) i else -i - 1)
  }

  /** Draw a token: Zipf concept, canonical form with prob 0.8 else a
    * random alternative form.
    */
  def drawToken(rng: scala.util.Random): Tok = {
    val c = drawConcept(rng)
    val fs = formsOf(c)
    val f = if (rng.nextDouble() < 0.8) 0 else 1 + rng.nextInt(fs.size - 1)
    Tok(conceptId(c), fs(f))
  }

  /** A different surface form of the same concept (for synonym noise);
    * returns the token unchanged if the concept is not from this pool or
    * has a single form.
    */
  def synonym(t: Tok, rng: scala.util.Random): Tok =
    if (!t.concept.startsWith(prefix)) t
    else {
      val c = t.concept.stripPrefix(prefix).toInt
      val fs = formsOf(c)
      val others = fs.filterNot(_ == t.form)
      if (others.isEmpty) t else t.copy(form = others(rng.nextInt(others.size)))
    }

  /** The pool's vocabulary for dictionary construction: every surface form
    * annotated with its concept and the concept's Zipf rank.
    */
  def surfaceForms: Seq[SurfaceForm] =
    (0 until nConcepts).flatMap(c => formsOf(c).map(f => SurfaceForm(f, conceptId(c), c + 1)))
}

/** Year-like numeric pool: every year is its own in-dictionary concept
  * (GloVe contains years), uniform draw.
  */
final class YearPool(lo: Int, hi: Int) extends Serializable {
  def drawToken(rng: scala.util.Random): Tok = {
    val y = lo + rng.nextInt(hi - lo + 1)
    Tok(s"year$y", y.toString)
  }
  def surfaceForms: Seq[SurfaceForm] =
    (lo to hi).map(y => SurfaceForm(y.toString, s"year$y", y - lo + 1))
}
