package repro.embedding

import repro.SparkSpec
import repro.core.Tokenizer
import repro.nn.Linalg

class GloveTrainerSpec extends SparkSpec {
  import org.apache.spark.sql.functions._

  private lazy val corpus = {
    import spark.implicits._
    // "cat" and "dog" always co-occur; "fish" never appears with them.
    Seq.fill(40)("cat dog pet").map(Tokenizer.tokenize) ++
      Seq.fill(40)("fish water tank").map(Tokenizer.tokenize)
  }

  private lazy val docs = {
    import spark.implicits._
    corpus.toDF("toks")
  }

  test("cooccurrence counts are symmetric-canonical and hand-checkable") {
    import spark.implicits._
    val tiny = Seq(Seq("a", "b", "c")).toDF("toks")
    val counts = GloveTrainer.cooccurrenceCounts(spark, tiny, "toks", window = 5)
    // pairs: (a,b) dist 1 → 1.0; (b,c) dist 1 → 1.0; (a,c) dist 2 → 0.5
    assert(math.abs(counts(("a", "b")) - 1.0) < 1e-9)
    assert(math.abs(counts(("b", "c")) - 1.0) < 1e-9)
    assert(math.abs(counts(("a", "c")) - 0.5) < 1e-9)
    assert(counts.size == 3)
  }

  test("window limits which pairs are counted") {
    import spark.implicits._
    val tiny = Seq(Seq("a", "b", "c", "d")).toDF("toks")
    val counts = GloveTrainer.cooccurrenceCounts(spark, tiny, "toks", window = 1)
    assert(!counts.contains(("a", "c")))
    assert(counts.contains(("a", "b")))
  }

  test("repeated documents scale the counts") {
    import spark.implicits._
    val tiny = Seq(Seq("a", "b"), Seq("a", "b")).toDF("toks")
    val counts = GloveTrainer.cooccurrenceCounts(spark, tiny, "toks")
    assert(math.abs(counts(("a", "b")) - 2.0) < 1e-9)
  }

  test("counts are exact: a pair at distance 3 in five documents counts 20/12, not five Double thirds") {
    import spark.implicits._
    val docs = Seq.fill(5)(Seq("a", "x", "y", "b")).toDF("toks")
    val counts = GloveTrainer.cooccurrenceCounts(spark, docs, "toks", window = 4)
    assert(counts(("a", "b")) == 20.0 / 12)
    assert(20.0 / 12 == 1.6666666666666667)
    assert(Seq.fill(5)(1.0 / 3).sum == 1.6666666666666665)
  }

  test("counts iterate in one order whatever the row order, also for pairs whose hashes collide") {
    import spark.implicits._
    assert(("Aa", "z").## == ("BB", "z").##)
    val docs = Seq(Seq("Aa", "z"), Seq("BB", "z"))
    val orders = Seq(docs, docs.reverse).map(d =>
      GloveTrainer.cooccurrenceCounts(spark, d.toDF("toks").coalesce(1), "toks").keys.toSeq)
    assert(orders.head == orders.last)
  }

  test("cooccurrenceCounts rejects a window outside 1..20") {
    import spark.implicits._
    val tiny = Seq(Seq("a", "b")).toDF("toks")
    for (w <- Seq(0, 21))
      intercept[IllegalArgumentException](GloveTrainer.cooccurrenceCounts(spark, tiny, "toks", window = w))
  }

  test("trained embeddings put co-occurring words closer than unrelated ones") {
    val counts = GloveTrainer.cooccurrenceCounts(spark, docs, "toks")
    val dict = GloveTrainer.fit(counts, dim = 16, epochs = 40, seed = 3)
    assert(Linalg.cosine(dict.lookup("cat"), dict.lookup("dog")) >
      Linalg.cosine(dict.lookup("cat"), dict.lookup("fish")))
  }

  test("fit covers the whole vocabulary and is deterministic") {
    val counts = GloveTrainer.cooccurrenceCounts(spark, docs, "toks")
    val d1 = GloveTrainer.fit(counts, dim = 8, epochs = 5, seed = 4)
    val d2 = GloveTrainer.fit(counts, dim = 8, epochs = 5, seed = 4)
    assert(d1.vectors.size == 6)
    assert(d1.lookup("cat").sameElements(d2.lookup("cat")))
  }

  test("fit rejects empty counts") {
    intercept[IllegalArgumentException](GloveTrainer.fit(Map.empty))
  }
}
