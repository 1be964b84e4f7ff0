package repro.baseline

import org.scalatest.funsuite.AnyFunSuite

class StringSimSpec extends AnyFunSuite {
  // The set and trigram measures on the strings' token sets and trigram counts.
  private def jaccard(a: String, b: String) = StringSim.jaccard(StringSim.tokens(a), StringSim.tokens(b))
  private def overlap(a: String, b: String) = StringSim.overlap(StringSim.tokens(a), StringSim.tokens(b))
  private def trigramCosine(a: String, b: String) = StringSim.trigramCosine(StringSim.trigrams(a), StringSim.trigrams(b))

  test("jaro known value (MARTHA/MARHTA)") {
    assert(math.abs(StringSim.jaro("martha", "marhta") - 0.9444444444) < 1e-6)
  }
  test("jaro of disjoint strings is 0") {
    assert(StringSim.jaro("abc", "xyz") == 0.0)
  }
  test("jaroWinkler boosts common prefixes (DIXON/DICKSONX)") {
    assert(math.abs(StringSim.jaroWinkler("dixon", "dicksonx") - 0.8133333) < 1e-4)
  }
  test("jaroWinkler of identical strings is 1") {
    assert(StringSim.jaroWinkler("same", "same") == 1.0)
  }
  test("jaccard over token sets") {
    assert(jaccard("a b c", "b c d") == 0.5)
    assert(jaccard("a", "a") == 1.0)
    assert(jaccard(null, null) == 1.0)
    assert(jaccard("a", null) == 0.0)
  }
  test("overlap coefficient uses the smaller set") {
    assert(overlap("a b", "a b c d") == 1.0)
    assert(overlap("a x", "a b c d") == 0.5)
  }
  test("trigramCosine is 1 for identical strings and lower for typos") {
    assert(math.abs(trigramCosine("hello", "hello") - 1.0) < 1e-9)
    val typo = trigramCosine("hello", "helxo")
    assert(typo > 0.2 && typo < 1.0)
  }
  test("trigramCosine scores two empty trigram maps 1.0 and one empty map 0.0") {
    assert(StringSim.trigramCosine(Map.empty, Map.empty) == 1.0)
    assert(trigramCosine(null, "ab") == 1.0) // "ab" is too short to have trigrams
    assert(trigramCosine("abc", "ab") == 0.0)
  }
  test("trigramCosine catches typos better than token jaccard") {
    assert(trigramCosine("wonderful", "wonderfull") > jaccard("wonderful", "wonderfull"))
  }
  test("exact match indicator") {
    assert(StringSim.exact("x", "x") == 1.0)
    assert(StringSim.exact("x", "y") == 0.0)
    assert(StringSim.exact(null, null) == 1.0)
  }
  test("numericSim relative closeness") {
    assert(StringSimSpec.numericSim("100", "100") == 1.0)
    assert(math.abs(StringSimSpec.numericSim("100", "90") - 0.9) < 1e-9)
    assert(StringSimSpec.numericSim("abc", "100") == 0.0)
  }
  test("all similarities are symmetric") {
    val pairs = Seq(("kitten", "sitting"), ("a b", "b c"), ("hello", "hullo"))
    pairs.foreach { case (a, b) =>
      assert(math.abs(StringSim.jaro(a, b) - StringSim.jaro(b, a)) < 1e-12)
      assert(jaccard(a, b) == jaccard(b, a))
      assert(math.abs(trigramCosine(a, b) - trigramCosine(b, a)) < 1e-12)
    }
  }
  test("synonyms are invisible to string similarity (the baseline's blind spot)") {
    // Lexically unrelated surface forms of one concept score low on every metric.
    assert(jaccard("rakemi", "tolave") == 0.0)
    assert(trigramCosine("rakemi", "tolave") < 0.3)
  }
}

object StringSimSpec {

  /** Relative numeric closeness of two raw strings, 0 when either side is
    * not a number: the reference for Magellan's numeric feature.
    */
  def numericSim(a: String, b: String): Double =
    (StringSim.parseNumber(a), StringSim.parseNumber(b)) match {
      case (Some(x), Some(y)) => StringSim.numericCloseness(x, y)
      case _                  => 0.0
    }
}

class RandomForestSpec extends AnyFunSuite {
  private def separable(n: Int, seed: Long) = {
    val rng = new scala.util.Random(seed)
    val xs = IndexedSeq.fill(n)(Array(rng.nextDouble(), rng.nextDouble()))
    val ys = xs.map(x => if (x(0) > 0.5) 1.0 else 0.0)
    (xs, ys)
  }

  test("a single deep tree fits separable data") {
    val (xs, ys) = separable(300, 1)
    val f = RandomForest.fit(xs, ys, nTrees = 1, maxDepth = 6, seed = 2)
    val acc = xs.zip(ys).count { case (x, y) => (f.predictProb(x) >= 0.5) == (y >= 0.5) }
    assert(acc > 280, s"acc=$acc")
  }

  test("forest probability is a mean of tree votes in [0,1]") {
    val (xs, ys) = separable(100, 3)
    val f = RandomForest.fit(xs, ys, nTrees = 7, seed = 4)
    xs.foreach { x =>
      val p = f.predictProb(x)
      assert(p >= 0.0 && p <= 1.0)
    }
  }

  test("balanced bootstrap keeps recall under 1:50 imbalance") {
    val rng = new scala.util.Random(5)
    val pos = IndexedSeq.fill(10)(Array(0.9 + rng.nextDouble() * 0.1, rng.nextDouble()))
    val neg = IndexedSeq.fill(500)(Array(rng.nextDouble() * 0.5, rng.nextDouble()))
    val xs = pos ++ neg
    val ys = IndexedSeq.fill(10)(1.0) ++ IndexedSeq.fill(500)(0.0)
    val f = RandomForest.fit(xs, ys, nTrees = 15, seed = 6)
    val recall = pos.count(f.predictProb(_) >= 0.5)
    assert(recall >= 8, s"recall $recall/10")
  }

  test("training is deterministic in seed") {
    val (xs, ys) = separable(100, 7)
    val f1 = RandomForest.fit(xs, ys, nTrees = 5, seed = 8)
    val f2 = RandomForest.fit(xs, ys, nTrees = 5, seed = 8)
    assert(xs.map(f1.predictProb) == xs.map(f2.predictProb))
  }

  test("pure-class input yields a constant leaf") {
    val xs = IndexedSeq.fill(20)(Array(1.0))
    val ys = IndexedSeq.fill(20)(0.0)
    val f = RandomForest.fit(xs, ys, nTrees = 3, seed = 9)
    assert(f.predictProb(Array(1.0)) < 0.5)
  }

  test("fit rejects empty input") {
    intercept[IllegalArgumentException](RandomForest.fit(IndexedSeq.empty, IndexedSeq.empty))
  }

  test("maxDepth=0 produces a prior-probability stump") {
    val (xs, ys) = separable(100, 10)
    val f = RandomForest.fit(xs, ys, nTrees = 1, maxDepth = 0, negPerPos = 1, seed = 11)
    val p = f.predictProb(Array(0.0, 0.0))
    assert(p > 0.2 && p < 0.8) // balanced bootstrap → prior ≈ 0.5
  }
}

class MagellanLikeSpec extends AnyFunSuite {
  test("profile precomputes tokens, trigrams and numerics") {
    val p = MagellanLike.profile(Seq("Hello World", "12.5", null))
    assert(p.attrs(0).toks == Set("hello", "world"))
    assert(p.attrs(1).numeric.contains(12.5))
    assert(p.attrs(2).raw == null && p.attrs(2).toks.isEmpty)
  }

  test("features has featuresPerAttr entries per attribute") {
    val a = MagellanLike.profile(Seq("x", "1.0"))
    val b = MagellanLike.profile(Seq("x", "2.0"))
    assert(MagellanLike.features(a, b).length == 2 * MagellanLike.featuresPerAttr)
  }

  test("identical tuples get all-maximal string features") {
    val a = MagellanLike.profile(Seq("acme widget", "10.0"))
    val f = MagellanLike.features(a, a)
    assert(f(0) == 1.0 && f(1) >= 0.999 && f(2) == 1.0 && f(3) == 1.0 && f(4) == 1.0 && f(11) == 1.0)
  }

  test("disjoint tuples get near-zero features") {
    val a = MagellanLike.profile(Seq("acme widget"))
    val b = MagellanLike.profile(Seq("zorp gadget"))
    val f = MagellanLike.features(a, b)
    assert(f(0) == 0.0 && f(4) == 0.0)
  }

  test("numeric feature reflects relative closeness") {
    val a = MagellanLike.profile(Seq("100"))
    val b = MagellanLike.profile(Seq("90"))
    val f = MagellanLike.features(a, b)
    assert(math.abs(f(5) - 0.9) < 1e-9)
  }

  test("numeric feature is numericSim of the raw values") {
    val values = Seq("100", "90", "-3.5", "0", "0.0", "1e3", "abc", "", null)
    for (a <- values; b <- values) {
      val f = MagellanLike.features(MagellanLike.profile(Seq(a)), MagellanLike.profile(Seq(b)))
      assert(f(5) == StringSimSpec.numericSim(a, b), s"($a, $b)")
    }
  }

  test("features rejects profiles of different arity") {
    intercept[IllegalArgumentException] {
      MagellanLike.features(MagellanLike.profile(Seq("a")), MagellanLike.profile(Seq("a", "b")))
    }
  }
}
