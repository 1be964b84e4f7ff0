package repro.data

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec}
import org.apache.spark.sql.functions._

class ERDatasetsSpec extends SparkSpec {

  // Generated once per run; generators are deterministic.
  private lazy val fz = ERDatasets.restFZ(spark)
  private lazy val da = ERDatasets.pubDA(spark)
  private lazy val ag = ERDatasets.prodAG(spark)
  private lazy val wa = ERDatasets.prodWA(spark)

  test("Rest-FZ has the configured sizes") {
    assert(fz.nA == 300 && fz.nB == 200 && fz.nMatches == 110)
  }

  test("Pub-DA has the configured sizes") {
    assert(da.nA == 800 && da.nB == 700 && da.nMatches == 600)
  }

  test("Prod-AG has the configured sizes") {
    assert(ag.nA == 600 && ag.nB == 1200 && ag.nMatches == 500)
  }

  test("attribute counts mirror Table 3 (4 / 5 / 7 / 17)") {
    assert(da.attrs.size == 4)
    assert(ag.attrs.size == 5)
    assert(fz.attrs.size == 7)
    assert(wa.attrs.size == 17)
  }

  /** Share of gold pairs whose first attribute (title or name) is the same string on both sides. */
  private def unchangedShare(ds: ERDataset): Double = {
    val attr = ds.attrs.head
    def values(df: DataFrame) = df.select("id", attr).collect().map(r => r.getLong(0) -> r.getString(1)).toMap
    val (a, b) = (values(ds.tableA), values(ds.tableB))
    val pairs = ds.matches.collect().map(r => (r.getLong(0), r.getLong(1)))
    pairs.count { case (i, j) => a(i) == b(j) }.toDouble / pairs.length
  }

  test("easy/challenging split matches the paper's categories") {
    // The easy datasets perturb their duplicates less than the challenging ones.
    val easy = Seq(da, fz).map(unchangedShare)
    val challenging = Seq(ag, wa).map(unchangedShare)
    assert(easy.min > challenging.max, s"easy $easy, challenging $challenging")
  }

  test("table ids are unique and dense") {
    val ids = fz.tableA.select("id").collect().map(_.getLong(0)).sorted
    assert(ids.sameElements(0L until 300L))
  }

  test("match pairs reference existing ids on both sides (oracle-checked)") {
    val joined = fz.matches
      .join(fz.tableA.select(col("id").as("idA")), "idA")
      .join(fz.tableB.select(col("id").as("idB")), "idB")
      .select(count(lit(1)).as("n"))
    Oracle.assertEquivalent(
      joined,
      "SELECT count(1) AS n FROM matches m JOIN ta ON m.idA = ta.id JOIN tb ON m.idB = tb.id",
      "matches" -> fz.matches, "ta" -> fz.tableA.select("id"), "tb" -> fz.tableB.select("id"))
    assert(joined.collect().head.getLong(0) == fz.nMatches)
  }

  test("each A id and each B id appears at most once in the gold matches") {
    assert(da.matches.select("idA").distinct().count() == da.nMatches)
    assert(da.matches.select("idB").distinct().count() == da.nMatches)
  }

  test("generation is deterministic") {
    val again = ERDatasets.restFZ(spark)
    val a1 = fz.tableA.orderBy("id").collect().map(_.toSeq)
    val a2 = again.tableA.orderBy("id").collect().map(_.toSeq)
    assert(a1.sameElements(a2))
    val m1 = fz.matches.orderBy("idA").collect().map(_.toSeq)
    val m2 = again.matches.orderBy("idA").collect().map(_.toSeq)
    assert(m1.sameElements(m2))
  }

  test("matched B tuples share concepts with their A counterpart (title tokens overlap semantically)") {
    // Matched pairs were produced by perturbation, so at least the year
    // attribute (never perturbed for citations) must agree.
    val pairs = da.matches.limit(50).collect().map(r => (r.getLong(0), r.getLong(1)))
    val aYear = da.tableA.select("id", "year").collect().map(r => r.getLong(0) -> r.getString(1)).toMap
    val bYear = da.tableB.select("id", "year").collect().map(r => r.getLong(0) -> r.getString(1)).toMap
    val agree = pairs.count { case (a, b) => aYear(a) == bYear(b) }
    assert(agree == pairs.length)
  }

  test("challenging datasets contain NULL attribute values") {
    val nNullDesc = ag.tableB.where(col("description").isNull).count()
    assert(nNullDesc > 0)
  }

  test("vocabulary forms cover the tokens used in the easy tables (minus numerics)") {
    val dictWords = fz.forms.map(_.word).toSet
    val nameTokens = fz.tableA.select("name").collect()
      .flatMap(r => Option(r.getString(0)).toSeq.flatMap(_.split(" ")))
    val cov = nameTokens.count(dictWords).toDouble / nameTokens.length
    assert(cov > 0.95, s"coverage $cov") // table A is unperturbed: full coverage
  }

  test("perturbed duplicates differ from their source in surface form") {
    val aTitle = ag.tableA.select("id", "title").collect().map(r => r.getLong(0) -> r.getString(1)).toMap
    val bTitle = ag.tableB.select("id", "title").collect().map(r => r.getLong(0) -> r.getString(1)).toMap
    val pairs = ag.matches.collect().map(r => (r.getLong(0), r.getLong(1)))
    val changed = pairs.count { case (a, b) => aTitle(a) != bTitle(b) }
    assert(changed > pairs.length / 2, s"only $changed of ${pairs.length} titles changed")
  }

  test("generate validates that matches fit in both tables") {
    intercept[IllegalArgumentException] {
      ERDatasets.generate(spark, "bad", Seq(
        ERDatasets.AttrGen("x", ERDatasets.Words(new WordPool("bad", 5), 1, 2))),
        nA = 2, nB = 2, nMatches = 5, Noise(), seed = 1)
    }
  }

  test("dataset statistics agree with a DuckDB aggregation (Table 3 harness)") {
    val stats = fz.tableA.agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(stats, "SELECT count(1) AS n FROM ta", "ta" -> fz.tableA.select("id"))
  }
}

class NucleotideSpec extends SparkSpec {
  private lazy val ds = Nucleotide.generate(spark, nA = 60, nB = 80, nMatches = 40, seqLen = 60, seed = 3)

  test("randomSeq uses only ACGT at the requested length") {
    val s = Nucleotide.randomSeq(100, new scala.util.Random(1))
    assert(s.length == 100 && s.forall("ACGT".contains(_)))
  }

  test("mutate with zero rates is the identity") {
    val s = Nucleotide.randomSeq(50, new scala.util.Random(2))
    assert(Nucleotide.mutate(s, 0.0, 0.0, new scala.util.Random(3)) == s)
  }

  test("mutate changes the sequence at positive rates") {
    val s = Nucleotide.randomSeq(200, new scala.util.Random(4))
    assert(Nucleotide.mutate(s, 0.1, 0.02, new scala.util.Random(5)) != s)
  }

  test("kmerize produces overlapping windows with the stride") {
    assert(Nucleotide.kmerize("ACGTAC", k = 4, stride = 2) == "ACGT GTAC")
    assert(Nucleotide.kmerize("ACGTA", k = 4, stride = 1) == "ACGT CGTA")
  }

  test("generated benchmark has the configured shape") {
    assert(ds.nA == 60 && ds.nB == 80 && ds.nMatches == 40)
    assert(ds.attrs == Seq("sequence", "organism", "gene"))
  }

  test("sequences are k-mer tokenized in the tables") {
    val s = ds.tableA.select("sequence").head().getString(0)
    assert(s.split(" ").forall(t => t.length == 4 && t.forall("ACGT".contains(_))))
  }

  test("no pre-trained vocabulary ships with the dataset (minimal-coverage scenario)") {
    assert(ds.forms.isEmpty)
  }

  test("a fraction of organism fields mention both names (synonymy context)") {
    val orgs = ds.tableA.select("organism").collect().map(_.getString(0))
    val dual = orgs.count(_.split(" ").length == 2)
    val frac = dual.toDouble / orgs.length
    assert(frac > 0.1 && frac < 0.55, s"dual-mention fraction $frac")
  }

  test("organism names use the sci/com naming scheme") {
    val orgs = ds.tableA.select("organism").collect().flatMap(_.getString(0).split(" "))
    assert(orgs.forall(o => o.startsWith("orgsci") || o.startsWith("orgcom")))
  }
}

class TranslationSpec extends SparkSpec {
  test("translateToken picks one of the two Spanish variants, deterministically") {
    val t = Translation.translateToken("hello", 0, 5L)
    assert(Translation.variants("hello").contains(t))
    assert(Translation.translateToken("hello", 0, 5L) == t)
  }

  test("translation varies across occurrences (MT inconsistency)") {
    val ts = for (p <- 0 until 5; s <- 0L until 5L) yield Translation.translateToken("hello", p, s)
    assert(ts.distinct.size == 2)
  }

  test("translateTable rewrites every token of the listed attributes") {
    val ds = ERDatasets.restFZ(spark)
    val es = Translation.translate(ds)
    val orig = ds.tableA.orderBy("id").select("name").collect().map(_.getString(0))
    val trans = es.tableA.orderBy("id").select("name").collect().map(_.getString(0))
    orig.zip(trans).foreach { case (o, t) =>
      if (o == null) assert(t == null)
      else {
        val src = o.split("\\s+"); val dst = t.split("\\s+")
        // Translation may omit tokens but never invents or leaves any raw.
        assert(dst.nonEmpty && dst.length <= src.length)
        val allVariants = src.flatMap(Translation.variants).toSet
        dst.foreach(d => assert(allVariants.contains(d), s"unexpected token $d"))
      }
    }
  }

  test("translated dataset keeps ids, matches and attribute layout") {
    val ds = ERDatasets.restFZ(spark)
    val es = Translation.translate(ds)
    assert(es.attrs == ds.attrs)
    assert(es.nMatches == ds.nMatches)
    assert(es.name == "Rest-FZ-es")
  }

  test("translated surface forms keep concepts for both variants (meaning survives translation)") {
    val ds = ERDatasets.restFZ(spark)
    val es = Translation.translate(ds)
    val byWord = es.forms.map(f => f.word -> f.concept).toMap
    ds.forms.foreach { f =>
      Translation.variants(f.word).foreach { v =>
        assert(byWord(v) == f.concept)
      }
    }
  }
}
