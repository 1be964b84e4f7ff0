package repro.embedding

import org.scalatest.funsuite.AnyFunSuite
import repro.{Oracle, SparkSpec}
import repro.core.Tokenizer
import repro.nn.Linalg

class EmbeddingDictSpec extends AnyFunSuite {
  private val dict = EmbeddingDict(3, Map(
    "alpha" -> Array(1.0, 0.0, 0.0),
    "beta"  -> Array(0.0, 1.0, 0.0),
  ))

  test("lookup returns the stored vector") {
    assert(dict.lookup("alpha").sameElements(Array(1.0, 0.0, 0.0)))
  }

  test("lookup of unknown word returns the UNK zero vector") {
    assert(dict.lookup("gamma").sameElements(Array(0.0, 0.0, 0.0)))
  }

  test("contains distinguishes vocabulary membership") {
    assert(dict.contains("alpha") && !dict.contains("gamma"))
  }

  test("coverage is the in-vocabulary fraction") {
    assert(dict.coverage(Seq("alpha", "beta", "gamma", "delta")) == 0.5)
    assert(dict.coverage(Nil) == 1.0)
  }

  test("++ adds entries and rejects dimension mismatch") {
    val d2 = dict ++ Map("gamma" -> Array(0.0, 0.0, 1.0))
    assert(d2.contains("gamma") && d2.vectors.size == 3)
    intercept[IllegalArgumentException](dict ++ Map("bad" -> Array(1.0)))
  }

  test("toTable lays out sorted vocab rows plus a trailing UNK row") {
    val (idx, m, unkIdx) = dict.toTable(Seq("beta", "alpha", "beta"))
    assert(idx == Map("alpha" -> 0, "beta" -> 1))
    assert(unkIdx == 2 && m.rows == 3 && m.cols == 3)
    assert(m.row(0).sameElements(dict.lookup("alpha")))
    assert(m.row(2).forall(_ == 0.0))
  }

  test("toTable maps out-of-dictionary vocab words to UNK-like zero rows") {
    val (idx, m, _) = dict.toTable(Seq("alpha", "zzz"))
    assert(m.row(idx("zzz")).forall(_ == 0.0))
  }

  test("cosine helper works through the dictionary") {
    assert(math.abs(Linalg.cosine(dict.lookup("alpha"), dict.lookup("alpha")) - 1.0) < 1e-9)
    assert(math.abs(Linalg.cosine(dict.lookup("alpha"), dict.lookup("beta"))) < 1e-9)
  }
}

class SyntheticGloveSpec extends AnyFunSuite {
  private val forms = Seq(
    SurfaceForm("bill", "c:william", 1), SurfaceForm("william", "c:william", 1),
    SurfaceForm("seattle", "c:seattle", 2),
    SurfaceForm("rareword", "c:rare", 10),
  )

  test("synonyms (same concept) have high cosine") {
    val d = SyntheticGlove.build(forms, dim = 50)
    assert(Linalg.cosine(d.lookup("bill"), d.lookup("william")) > 0.85)
  }

  test("unrelated concepts are near-orthogonal") {
    val d = SyntheticGlove.build(forms, dim = 50)
    assert(math.abs(Linalg.cosine(d.lookup("bill"), d.lookup("seattle"))) < 0.5)
    assert(Linalg.cosine(d.lookup("bill"), d.lookup("seattle")) <
      Linalg.cosine(d.lookup("bill"), d.lookup("william")))
  }

  test("vectors are unit norm") {
    val d = SyntheticGlove.build(forms, dim = 50)
    assert(math.abs(Linalg.norm(d.lookup("bill")) - 1.0) < 1e-9)
  }

  test("coverage prunes high-rank (rare) concepts") {
    val full = SyntheticGlove.build(forms, dim = 20, coverage = 1.0)
    val half = SyntheticGlove.build(forms, dim = 20, coverage = 0.5)
    assert(full.contains("rareword"))
    assert(!half.contains("rareword"))
    assert(half.contains("bill")) // rank 1 survives
  }

  test("construction is deterministic in seed") {
    val a = SyntheticGlove.build(forms, dim = 20, seed = 5)
    val b = SyntheticGlove.build(forms, dim = 20, seed = 5)
    assert(a.lookup("bill").sameElements(b.lookup("bill")))
  }

  test("different seeds give different dictionaries") {
    val a = SyntheticGlove.build(forms, dim = 20, seed = 5)
    val b = SyntheticGlove.build(forms, dim = 20, seed = 6)
    assert(!a.lookup("bill").sameElements(b.lookup("bill")))
  }

  test("larger noise lowers synonym cosine") {
    val tight = SyntheticGlove.build(forms, dim = 50, noiseStd = 0.1)
    val loose = SyntheticGlove.build(forms, dim = 50, noiseStd = 0.8)
    assert(Linalg.cosine(tight.lookup("bill"), tight.lookup("william")) >
      Linalg.cosine(loose.lookup("bill"), loose.lookup("william")))
  }

  test("hashVector is deterministic and unit length") {
    val v1 = SyntheticGlove.hashVector("x", 30, 1)
    val v2 = SyntheticGlove.hashVector("x", 30, 1)
    assert(v1.sameElements(v2))
    assert(math.abs(Linalg.norm(v1) - 1.0) < 1e-9)
  }

  test("empty vocabulary is rejected") {
    intercept[IllegalArgumentException](SyntheticGlove.build(Nil))
  }
}

class RetrofitSpec extends AnyFunSuite {
  private val base = EmbeddingDict(4, Map(
    "known1" -> Array(1.0, 0.0, 0.0, 0.0),
    "known2" -> Array(0.0, 1.0, 0.0, 0.0),
  ))

  test("OOV word connected to a known word acquires a nearby vector") {
    val edges = Map("oov" -> Seq("known1"), "known1" -> Seq("oov"))
    val d = Retrofit.retrofit(base, edges)
    assert(Linalg.cosine(d.lookup("oov"), base.lookup("known1")) > 0.9)
  }

  test("anchored words stay close to their pre-trained vector") {
    val edges = Map("known1" -> Seq("known2"), "known2" -> Seq("known1"))
    val d = Retrofit.retrofit(base, edges)
    assert(Linalg.cosine(d.lookup("known1"), base.lookup("known1")) > 0.7)
  }

  test("retrofitting pulls co-occurring known words together (SIGMOD/Stonebraker effect)") {
    val edges = Map("known1" -> Seq("known2"), "known2" -> Seq("known1"))
    val d = Retrofit.retrofit(base, edges)
    assert(Linalg.cosine(d.lookup("known1"), d.lookup("known2")) >
      Linalg.cosine(base.lookup("known1"), base.lookup("known2")))
  }

  test("isolated OOV word stays at zero") {
    val d = Retrofit.retrofit(base, Map("lonely" -> Nil))
    assert(d.lookup("lonely").forall(_ == 0.0))
  }

  test("OOV chain: word two hops from anchor still gets signal") {
    val edges = Map(
      "oov1" -> Seq("known1"), "oov2" -> Seq("oov1"),
      "known1" -> Seq("oov1"), // symmetric-ish
    )
    val d = Retrofit.retrofit(base, edges, iters = 20)
    assert(Linalg.norm(d.lookup("oov2")) > 0.0)
  }

  test("retrofit preserves words outside the graph") {
    val d = Retrofit.retrofit(base, Map("oov" -> Seq("known1")))
    assert(d.lookup("known2").sameElements(base.lookup("known2")))
  }
}

class RetrofitEdgesSpec extends SparkSpec {

  test("cooccurrenceEdges keeps each word's top-maxDegree neighbours as DuckDB's row_number by (count desc, nbr)") {
    import spark.implicits._
    // 40 tuples over 9 tokens: small counts, so many neighbours tie at the
    // cut and the nbr tie-break decides which are kept. Repeated tokens
    // and NULL attributes included.
    val rng = new scala.util.Random(41)
    def attr() = if (rng.nextInt(6) == 0) null else Seq.fill(rng.nextInt(4))(s"W${rng.nextInt(9)}").mkString(" ")
    val rows = (0 until 40).map(i => (i.toLong, attr(), attr()))
    val maxDegree = 3
    val edges = Retrofit.cooccurrenceEdges(
      spark, rows.toDF("id", "a", "b"), Seq("a", "b"), maxDegree)
    // (tuple id, token) for each distinct token of a tuple: the oracle's input.
    val toks = rows.flatMap { case (id, a, b) =>
      (Tokenizer.tokenize(a) ++ Tokenizer.tokenize(b)).distinct.map((id, _))
    }

    val counts = toks.groupBy(_._1).values.flatMap(ts => for ((_, w) <- ts; (_, n) <- ts if w != n) yield (w, n))
      .groupBy(identity).map { case (e, es) => e -> es.size }
    val tiedAtCut = counts.groupBy(_._1._1).values.count { cs =>
      val sorted = cs.values.toSeq.sorted.reverse
      sorted.size > maxDegree && sorted(maxDegree - 1) == sorted(maxDegree)
    }
    assert(tiedAtCut > 0, "the table should have ties at the maxDegree cut")

    // Each kept neighbour with its position in the word's list, so the order is checked too.
    val ranked = edges.toSeq.flatMap { case (w, ns) => ns.zipWithIndex.map { case (n, i) => (w, n, i + 1L) } }
    Oracle.assertEquivalent(
      ranked.toDF("w", "nbr", "rk"),
      "WITH e AS (SELECT x.t AS w, y.t AS nbr, count(*) AS c FROM toks x JOIN toks y " +
        "ON x.id = y.id AND x.t <> y.t GROUP BY x.t, y.t) SELECT w, nbr, rk FROM (SELECT w, nbr, " +
        s"row_number() OVER (PARTITION BY w ORDER BY c DESC, nbr) AS rk FROM e) WHERE rk <= $maxDegree",
      "toks" -> toks.toDF("id", "t"))
  }
}
