package repro.data

import org.scalatest.funsuite.AnyFunSuite

class WordPoolSpec extends AnyFunSuite {
  private val pool = new WordPool("t", nConcepts = 50, nForms = 2, seed = 1)

  test("every concept has nForms + 1 surface forms (incl. abbreviation) unless exhausted") {
    assert(pool.formsOf.forall(fs => fs.size == 3 || fs.size == 2))
    assert(pool.formsOf.count(_.size == 3) > 40) // abbreviation exists for almost all
  }

  test("every surface word denotes exactly one concept") {
    val byWord = pool.surfaceForms.groupBy(_.word)
    assert(byWord.values.forall(_.map(_.concept).distinct.size == 1))
  }

  test("surface forms are globally distinct within the pool (incl. abbreviations)") {
    val full = pool.formsOf.flatten
    assert(full.distinct.size == full.size)
  }

  test("abbreviation form is a dotted prefix of the canonical form") {
    pool.formsOf.filter(_.size == 3).foreach { fs =>
      assert(fs.last.endsWith("."))
      assert(fs.head.startsWith(fs.last.dropRight(1)))
    }
  }

  test("words of different pools never collide (prefix suffixing)") {
    val other = new WordPool("x", 50, 2, seed = 1)
    val a = pool.formsOf.flatMap(_.dropRight(1)).toSet
    val b = other.formsOf.flatMap(_.dropRight(1)).toSet
    assert(a.intersect(b).isEmpty)
  }

  test("pool construction is deterministic in prefix and seed") {
    val p2 = new WordPool("t", 50, 2, seed = 1)
    assert(pool.formsOf == p2.formsOf)
  }

  test("different prefixes give different words") {
    val other = new WordPool("u", 50, 2, seed = 1)
    assert(pool.formsOf != other.formsOf)
  }

  test("zipf draw favours low concept ids") {
    val rng = new scala.util.Random(2)
    val draws = Vector.fill(5000)(pool.drawConcept(rng))
    val lowHalf = draws.count(_ < 25)
    assert(lowHalf > draws.size * 0.6, s"low-half fraction ${lowHalf.toDouble / draws.size}")
  }

  test("drawToken returns a form of the drawn concept") {
    val rng = new scala.util.Random(3)
    (1 to 100).foreach { _ =>
      val t = pool.drawToken(rng)
      val c = t.concept.stripPrefix("t").toInt
      assert(pool.formsOf(c).contains(t.form))
    }
  }

  test("synonym returns a different form of the same concept") {
    val rng = new scala.util.Random(4)
    val t = Tok(pool.conceptId(0), pool.formsOf(0).head)
    (1 to 20).foreach { _ =>
      val s = pool.synonym(t, rng)
      assert(s.concept == t.concept)
      assert(s.form != t.form)
    }
  }

  test("synonym leaves foreign concepts untouched") {
    val rng = new scala.util.Random(5)
    val t = Tok("other0", "xyz")
    assert(pool.synonym(t, rng) == t)
  }

  test("surfaceForms carries concept and 1-based rank") {
    val sf = pool.surfaceForms
    assert(sf.size >= 50 * 2 && sf.size <= 50 * 3)
    assert(sf.filter(_.concept == "t0").forall(_.rank == 1))
    assert(sf.map(_.rank).max == 50)
  }
}

class YearPoolSpec extends AnyFunSuite {
  private val years = new YearPool(2000, 2005)

  test("draws stay inside the range and concept matches form") {
    val rng = new scala.util.Random(1)
    (1 to 100).foreach { _ =>
      val t = years.drawToken(rng)
      val y = t.form.toInt
      assert(y >= 2000 && y <= 2005)
      assert(t.concept == s"year$y")
    }
  }

  test("surfaceForms enumerates every year once") {
    assert(years.surfaceForms.size == 6)
    assert(years.surfaceForms.map(_.word).distinct.size == 6)
  }
}

class NoiseModelSpec extends AnyFunSuite {
  private val pool = new WordPool("n", 20, 2, seed = 9)

  test("typo changes the token") {
    val rng = new scala.util.Random(1)
    (1 to 50).foreach { _ =>
      assert(NoiseModel.typo("hello", rng) != "hello")
    }
  }

  test("typo changes length by at most one") {
    val rng = new scala.util.Random(2)
    (1 to 50).foreach { _ =>
      val t = NoiseModel.typo("abcdef", rng)
      assert(math.abs(t.length - 6) <= 1)
    }
  }

  test("typo on empty string is a no-op") {
    assert(NoiseModel.typo("", new scala.util.Random(3)) == "")
  }

  test("zero noise is the identity perturbation") {
    val rng = new scala.util.Random(4)
    val toks = Vector.fill(5)(pool.drawToken(rng))
    val out = NoiseModel.perturbAttr(toks, Noise(0, 0, 0, 0), pool, rng)
    assert(out == toks)
  }

  test("nullifyRate=1 empties the attribute") {
    val rng = new scala.util.Random(5)
    val toks = Vector.fill(3)(pool.drawToken(rng))
    assert(NoiseModel.perturbAttr(toks, Noise(0, 0, 0, nullifyRate = 1.0), pool, rng).isEmpty)
  }

  test("synonymRate=1 preserves all concepts but changes forms") {
    val rng = new scala.util.Random(6)
    val toks = Vector.fill(5)(pool.drawToken(rng))
    val out = NoiseModel.perturbAttr(toks, Noise(synonymRate = 1.0, 0, 0, 0), pool, rng)
    assert(out.map(_.concept) == toks.map(_.concept))
    assert(out.zip(toks).forall { case (o, t) => o.form != t.form })
  }

  test("dropRate keeps at least one token") {
    val rng = new scala.util.Random(7)
    val toks = Vector.fill(6)(pool.drawToken(rng))
    (1 to 20).foreach { _ =>
      val out = NoiseModel.perturbAttr(toks, Noise(0, 0, dropRate = 0.99, 0), pool, rng)
      assert(out.nonEmpty)
    }
  }

  test("shuffleRate=1 preserves the token multiset") {
    val rng = new scala.util.Random(8)
    val toks = Vector.fill(6)(pool.drawToken(rng))
    val out = NoiseModel.perturbAttr(toks, Noise(0, 0, 0, 0, shuffleRate = 1.0), pool, rng)
    assert(out.sortBy(_.form) == toks.sortBy(_.form))
  }

  test("jitterNumeric stays within the rate and passes through non-numbers") {
    val rng = new scala.util.Random(9)
    (1 to 30).foreach { _ =>
      val j = NoiseModel.jitterNumeric("100.00", 0.1, rng).toDouble
      assert(j >= 90.0 - 1e-6 && j <= 110.0 + 1e-6)
    }
    assert(NoiseModel.jitterNumeric("abc", 0.1, rng) == "abc")
  }

  test("flipLabels flips roughly the requested fraction, deterministically") {
    val labels = IndexedSeq.fill(2000)(1.0)
    val flipped = NoiseModel.flipLabels(labels, 0.3, seed = 10)
    val nFlipped = flipped.count(_ == 0.0)
    assert(nFlipped > 500 && nFlipped < 700)
    assert(flipped == NoiseModel.flipLabels(labels, 0.3, seed = 10))
  }

  test("flipLabels with zero fraction is identity") {
    val labels = IndexedSeq(1.0, 0.0, 1.0)
    assert(NoiseModel.flipLabels(labels, 0.0, 1) == labels)
  }
}
