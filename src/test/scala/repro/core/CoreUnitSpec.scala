package repro.core

import org.scalatest.funsuite.AnyFunSuite

class TokenizerSpec extends AnyFunSuite {
  test("lowercases and splits on whitespace") {
    assert(Tokenizer.tokenize("Bill  Gates") == Seq("bill", "gates"))
  }
  test("null and empty yield the empty sequence") {
    assert(Tokenizer.tokenize(null).isEmpty)
    assert(Tokenizer.tokenize("").isEmpty)
  }
  test("keeps abbreviation dots") {
    assert(Tokenizer.tokenize("proc. vldb") == Seq("proc.", "vldb"))
  }
  test("handles tabs and newlines as separators") {
    assert(Tokenizer.tokenize("a\tb\nc") == Seq("a", "b", "c"))
  }
}

class SimilaritySpec extends AnyFunSuite {
  test("cosineVector is per-attribute") {
    val va = Array(Array(1.0, 0.0), Array(0.0, 1.0))
    val vb = Array(Array(1.0, 0.0), Array(1.0, 0.0))
    val s = Similarity.cosineVector(va, vb)
    assert(math.abs(s(0) - 1.0) < 1e-9 && math.abs(s(1)) < 1e-9)
  }
  test("cosineVector rejects attribute count mismatch") {
    intercept[IllegalArgumentException] {
      Similarity.cosineVector(Array(Array(1.0)), Array(Array(1.0), Array(2.0)))
    }
  }
  test("tupleCosine flattens and compares whole tuples") {
    val va = Array(Array(1.0, 0.0), Array(0.0, 0.0))
    val vb = Array(Array(1.0, 0.0), Array(0.0, 0.0))
    assert(math.abs(Similarity.tupleCosine(va, vb) - 1.0) < 1e-9)
  }
  test("tupleCosine equals the cosine of the flattened tuples bit for bit") {
    val rng = new scala.util.Random(4)
    def tuple() = Array.fill(3)(Array.fill(5)(if (rng.nextInt(4) == 0) 0.0 else rng.nextGaussian()))
    (1 to 200).foreach { _ =>
      val va = tuple(); val vb = tuple()
      assert(Similarity.tupleCosine(va, vb) == repro.nn.Linalg.cosine(va.flatten, vb.flatten))
    }
    val zero = Array(Array(0.0, 0.0), Array(0.0))
    assert(Similarity.tupleCosine(zero, Array(Array(1.0, 2.0), Array(3.0))) == 0.0)
  }
  test("paper running example: averaging similarity vector is [~0.99, 1.0]") {
    // Example 1/3 of the paper, d=3 embeddings of Bill/William/Gates/Seattle.
    val bill = Array(0.4, 0.8, 0.9); val william = Array(0.3, 0.9, 0.7)
    val gates = Array(0.5, 0.8, 0.8); val seattle = Array(0.1, 0.1, 0.2)
    val v1 = Array(repro.nn.Linalg.mean(Seq(bill, gates)), seattle)
    val v2 = Array(repro.nn.Linalg.mean(Seq(william, gates)), seattle)
    val s = Similarity.cosineVector(v1, v2)
    assert(s(0) > 0.98 && s(0) < 1.0)
    assert(math.abs(s(1) - 1.0) < 1e-9)
  }
}

class EvaluationSpec extends AnyFunSuite {
  test("fromCounts computes precision, recall, F1") {
    val p = Evaluation.fromCounts(tp = 8, fp = 2, fn = 2)
    assert(math.abs(p.precision - 0.8) < 1e-9)
    assert(math.abs(p.recall - 0.8) < 1e-9)
    assert(math.abs(p.f1 - 0.8) < 1e-9)
  }
  test("fromCounts handles empty denominators") {
    assert(Evaluation.fromCounts(0, 0, 0).f1 == 0.0)
  }
  test("score thresholds probabilities") {
    val prf = Evaluation.score(Seq(0.9, 0.4, 0.6, 0.1), Seq(1.0, 1.0, 0.0, 0.0))
    // tp=1 (0.9), fn=1 (0.4), fp=1 (0.6), tn=1
    assert(math.abs(prf.precision - 0.5) < 1e-9)
    assert(math.abs(prf.recall - 0.5) < 1e-9)
  }
  test("perfect classifier scores F1 = 1") {
    assert(Evaluation.score(Seq(0.99, 0.01), Seq(1.0, 0.0)).f1 == 1.0)
  }
  test("stratifiedFolds partitions all indices exactly once across test folds") {
    val labels = IndexedSeq.tabulate(100)(i => if (i < 20) 1.0 else 0.0)
    val folds = Evaluation.stratifiedFolds(labels, 5, seed = 1)
    val testAll = folds.flatMap(_._2)
    assert(testAll.sorted == (0 until 100))
    folds.foreach { case (train, test) =>
      assert((train ++ test).sorted == (0 until 100))
      assert(train.toSet.intersect(test.toSet).isEmpty)
    }
  }
  test("stratifiedFolds keeps the class ratio per fold") {
    val labels = IndexedSeq.tabulate(100)(i => if (i < 20) 1.0 else 0.0)
    Evaluation.stratifiedFolds(labels, 5, seed = 2).foreach { case (_, test) =>
      assert(test.count(labels(_) >= 0.5) == 4)
      assert(test.size == 20)
    }
  }
  test("stratifiedFolds is deterministic in seed") {
    val labels = IndexedSeq.tabulate(30)(i => (i % 3).min(1).toDouble)
    assert(Evaluation.stratifiedFolds(labels, 3, 7) == Evaluation.stratifiedFolds(labels, 3, 7))
  }
}
