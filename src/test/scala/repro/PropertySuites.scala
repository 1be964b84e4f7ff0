package repro

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.forAll
import repro.baseline.StringSim
import repro.core.Tokenizer
import repro.nn.Linalg

/** Pure ScalaCheck property suites (run natively by sbt's ScalaCheck
  * framework support, no scalatest bridge needed).
  */
object StringSimProps extends Properties("StringSim") {
  private val word: Gen[String] = Gen.chooseNum(0, 12).flatMap(n => Gen.stringOfN(n, Gen.alphaLowerChar))

  property("jaro bounded in [0,1]") = forAll(word, word) { (a, b) =>
    val s = StringSim.jaro(a, b); s >= 0.0 && s <= 1.0
  }
  property("jaroWinkler >= jaro") = forAll(word, word) { (a, b) =>
    StringSim.jaroWinkler(a, b) >= StringSim.jaro(a, b) - 1e-12
  }
  property("jaccard bounded and reflexive") = forAll(word) { a =>
    StringSim.jaccard(StringSim.tokens(a), StringSim.tokens(a)) == 1.0
  }
  property("trigramCosine bounded in [0,1]") = forAll(word, word) { (a, b) =>
    val s = StringSim.trigramCosine(StringSim.trigrams(a), StringSim.trigrams(b)); s >= -1e-12 && s <= 1.0 + 1e-12
  }
}

object LinalgProps extends Properties("Linalg") {
  private val vec: Gen[Array[Double]] =
    Gen.listOfN(6, Gen.chooseNum(-10.0, 10.0)).map(_.toArray)

  property("cosine bounded in [-1,1]") = forAll(vec, vec) { (a, b) =>
    val c = Linalg.cosine(a, b); c >= -1.0 - 1e-9 && c <= 1.0 + 1e-9
  }
  property("cosine symmetric") = forAll(vec, vec) { (a, b) =>
    math.abs(Linalg.cosine(a, b) - Linalg.cosine(b, a)) < 1e-12
  }
  property("unit has norm 1 for nonzero input") = forAll(vec) { a =>
    Linalg.norm(a) < 1e-9 || math.abs(Linalg.norm(Linalg.unit(a)) - 1.0) < 1e-9
  }
  property("dot bilinear in scaling") = forAll(vec, vec, Gen.chooseNum(-3.0, 3.0)) { (a, b, s) =>
    math.abs(Linalg.dot(Linalg.scale(a, s), b) - s * Linalg.dot(a, b)) < 1e-6
  }
  property("mean of identical vectors is the vector") = forAll(vec) { a =>
    Linalg.mean(Seq(a, a, a)).zip(a).forall { case (m, v) => math.abs(m - v) < 1e-12 }
  }
}

object TokenizerProps extends Properties("Tokenizer") {
  private val text: Gen[String] = Gen.listOf(Gen.oneOf(
    Gen.stringOfN(3, Gen.alphaChar), Gen.const(" "), Gen.const("\t"))).map(_.mkString)

  property("tokens contain no whitespace") = forAll(text) { s =>
    Tokenizer.tokenize(s).forall(t => !t.exists(_.isWhitespace) && t.nonEmpty)
  }
  property("tokenization is idempotent under re-joining") = forAll(text) { s =>
    val once = Tokenizer.tokenize(s)
    Tokenizer.tokenize(once.mkString(" ")) == once
  }
  property("tokens are lowercase") = forAll(text) { s =>
    Tokenizer.tokenize(s).forall(t => t == t.toLowerCase)
  }
}

object LshProps extends Properties("LSH") {
  import repro.lsh.{MultiProbeLSH, RandomHyperplaneLSH}

  property("signature stable across calls") = forAll(Gen.chooseNum(1L, 1000L)) { seed =>
    val m = RandomHyperplaneLSH.model(8, 12, 2, seed)
    val rng = new scala.util.Random(seed)
    val v = Array.fill(8)(rng.nextGaussian())
    m.signature(v, 0) == m.signature(v, 0) && m.signature(v, 1) == m.signature(v, 1)
  }
  property("probe codes unique and within distance") =
    forAll(Gen.chooseNum(0, 255), Gen.chooseNum(0, 2)) { (code, mp) =>
      val codes = MultiProbeLSH.probeCodes(code, 8, mp)
      codes.distinct.size == codes.size &&
        codes.forall(c => Integer.bitCount(c ^ code) <= mp)
    }
}
