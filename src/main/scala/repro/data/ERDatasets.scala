package repro.data

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types._
import repro.embedding.SurfaceForm

/** A generated ER benchmark: two tables with aligned attributes, a gold
  * match set, and the vocabulary (surface forms + concepts) from which the
  * records were built — the latter feeds the synthetic embedding
  * dictionaries (DESIGN.md §4).
  */
final case class ERDataset(
    name: String,
    attrs: Seq[String],
    tableA: DataFrame,
    tableB: DataFrame,
    matches: DataFrame, // columns idA, idB
    forms: Seq[SurfaceForm],
) {
  def nA: Long = tableA.count()
  def nB: Long = tableB.count()
  def nMatches: Long = matches.count()
}

object ERDataset {

  /** Each tuple of `df` by id: the strings of its `attrs`, NULL as null, from one collect. */
  def rawValues(df: DataFrame, attrs: Seq[String]): Map[Long, Array[String]] =
    df.select(col("id") +: attrs.map(a => col(a).cast("string")): _*).collect()
      .map(r => r.getLong(0) -> Array.tabulate(attrs.size)(i => r.getString(i + 1))).toMap
}

/** Synthetic equivalents of the paper's seven benchmark datasets
  * (Table 3). Entities are built from concept pools; duplicates are
  * perturbed copies (synonyms, typos, drops, nulls, reorders); the
  * easy/challenging split is a noise/structure split exactly as in the
  * paper. Sizes are scaled to the local[*] session (Pub-DC down from
  * 1.8M tuples); all generation is deterministic in the dataset seed.
  */
object ERDatasets {

  sealed trait AttrKind extends Serializable
  /** Token sequence from a word pool; `presence` is the probability the
    * attribute is populated at all (sparse product attributes) and
    * `noiseOverride` replaces the dataset-level perturbation for this
    * attribute (e.g. Walmart/Amazon spec columns disagree far more often
    * than titles do).
    */
  final case class Words(pool: WordPool, minToks: Int, maxToks: Int, presence: Double = 1.0,
      noiseOverride: Option[Noise] = None) extends AttrKind
  final case class YearAttr(pool: YearPool) extends AttrKind
  /** Numeric attribute rendered as a single out-of-vocabulary token
    * (prices, phone numbers): GloVe maps these to UNK, as the paper notes.
    */
  final case class Numeric(lo: Double, hi: Double, digits: Int = 2) extends AttrKind

  final case class AttrGen(name: String, kind: AttrKind) extends Serializable

  type Entity = Map[String, Vector[Tok]]

  private def drawEntity(attrGens: Seq[AttrGen], rng: scala.util.Random): Entity =
    attrGens.map { ag =>
      val toks: Vector[Tok] = ag.kind match {
        case Words(pool, lo, hi, presence, _) =>
          if (rng.nextDouble() >= presence) Vector.empty
          else Vector.fill(lo + rng.nextInt(hi - lo + 1))(pool.drawToken(rng))
        case YearAttr(pool) => Vector(pool.drawToken(rng))
        case Numeric(lo, hi, digits) =>
          val v = lo + rng.nextDouble() * (hi - lo)
          val s = s"%.${digits}f".format(v)
          Vector(Tok(s"num:$s", s))
      }
      ag.name -> toks
    }.toMap

  private def perturb(e: Entity, attrGens: Seq[AttrGen], noise: Noise, rng: scala.util.Random): Entity =
    attrGens.map { ag =>
      val toks = e(ag.name)
      val out = ag.kind match {
        case Words(pool, _, _, _, over) => NoiseModel.perturbAttr(toks, over.getOrElse(noise), pool, rng)
        case YearAttr(_)          => toks // years rarely disagree between true duplicates
        case Numeric(_, _, _) =>
          toks.map { t =>
            val s = NoiseModel.jitterNumeric(t.form, noise.numericJitter, rng)
            Tok(s"num:$s", s)
          }
      }
      ag.name -> out
    }.toMap

  private def render(e: Entity, attrs: Seq[String]): Seq[String] =
    attrs.map { a =>
      val toks = e(a)
      if (toks.isEmpty) null else toks.map(_.form).mkString(" ")
    }

  /** A generated dataset from its rendered rows. `aRows(i)` is the
    * attribute strings (null for NULL) of A's tuple with id i. `bRows` is
    * B's tuples in their shuffled order, each with the id of the A tuple it
    * duplicates or -1 for a fresh one; B's ids are their positions. The
    * tables have 8 partitions and the gold `(idA, idB)` pairs 4.
    */
  def assemble(spark: SparkSession, name: String, attrs: Seq[String], aRows: Seq[Seq[String]],
      bRows: Seq[(Long, Seq[String])], forms: Seq[SurfaceForm]): ERDataset = {
    val schema = StructType(
      StructField("id", LongType, nullable = false) +:
        attrs.map(a => StructField(a, StringType, nullable = true)))
    def table(rows: Seq[Seq[String]]): DataFrame = spark.createDataFrame(spark.sparkContext.parallelize(
      rows.zipWithIndex.map { case (values, id) => Row.fromSeq(id.toLong +: values) }, 8), schema)
    val matchPairs = bRows.zipWithIndex.collect { case ((aId, _), bId) if aId >= 0 => Row(aId, bId.toLong) }
    val matchSchema = StructType(Seq(StructField("idA", LongType, false), StructField("idB", LongType, false)))
    ERDataset(name, attrs, table(aRows), table(bRows.map(_._2)),
      spark.createDataFrame(spark.sparkContext.parallelize(matchPairs, 4), matchSchema), forms)
  }

  /** Generic two-table generator.
    *
    * Table A holds `nA` entities; table B holds perturbed duplicates of the
    * first `nMatches` A-entities plus `nB - nMatches` fresh entities, in a
    * shuffled order so row position carries no signal.
    */
  def generate(
      spark: SparkSession,
      name: String,
      attrGens: Seq[AttrGen],
      nA: Int,
      nB: Int,
      nMatches: Int,
      noise: Noise,
      seed: Long,
  ): ERDataset = {
    require(nMatches <= nA && nMatches <= nB, s"$name: matches must fit both tables")
    val rng = new scala.util.Random(seed)
    val attrs = attrGens.map(_.name)
    val aEntities = Vector.fill(nA)(drawEntity(attrGens, rng))
    val dupes = (0 until nMatches).map(i => (i.toLong, perturb(aEntities(i), attrGens, noise, rng)))
    val fresh = (0 until (nB - nMatches)).map(_ => (-1L, drawEntity(attrGens, rng)))
    val shuffled = rng.shuffle(dupes ++ fresh)
    val forms = attrGens.flatMap {
      case AttrGen(_, Words(pool, _, _, _, _)) => pool.surfaceForms
      case AttrGen(_, YearAttr(pool))          => pool.surfaceForms
      case _                                   => Nil
    }.distinct

    assemble(spark, name, attrs, aEntities.map(render(_, attrs)),
      shuffled.map { case (aId, e) => (aId, render(e, attrs)) }, forms)
  }

  private val easyNoise = Noise(synonymRate = 0.12, typoRate = 0.04, dropRate = 0.05, nullifyRate = 0.02)
  private val hardNoise = Noise(synonymRate = 0.50, typoRate = 0.15, dropRate = 0.25,
    nullifyRate = 0.08, shuffleRate = 0.5, numericJitter = 0.15)

  private def citationAttrs(tag: String, seed: Long) = Seq(
    AttrGen("title",   Words(new WordPool(s"${tag}ti", 400, 2, seed = seed), 5, 9)),
    AttrGen("authors", Words(new WordPool(s"${tag}au", 300, 3, seed = seed + 1), 2, 4)),
    AttrGen("venue",   Words(new WordPool(s"${tag}ve", 50, 2, seed = seed + 2), 1, 2)),
    AttrGen("year",    YearAttr(new YearPool(1992, 2018))),
  )

  /** DBLP-ACM (easy): 2,616 x 2,294 tuples, 2,224 matches, 4 attrs. */
  def pubDA(spark: SparkSession): ERDataset =
    generate(spark, "Pub-DA", citationAttrs("da", 100), nA = 800, nB = 700, nMatches = 600,
      easyNoise, seed = 101)

  /** DBLP-Scholar (easy, noisier source): 2,616 x 64,263, 5,347 matches. */
  def pubDS(spark: SparkSession): ERDataset =
    generate(spark, "Pub-DS", citationAttrs("ds", 200),
      nA = 800, nB = 2400, nMatches = 700,
      easyNoise.copy(typoRate = 0.08, dropRate = 0.10), seed = 202)

  /** DBLP-Citeseer (easy, large): 1.8M x 2.5M in the paper, scaled down. */
  def pubDC(spark: SparkSession): ERDataset =
    generate(spark, "Pub-DC", citationAttrs("dc", 300), nA = 1500, nB = 2000, nMatches = 1200,
      easyNoise, seed = 303)

  /** Amazon-Google (challenging): 1,363 x 3,226, 1,300 matches, 5 attrs. */
  def prodAG(spark: SparkSession): ERDataset =
    generate(spark, "Prod-AG", Seq(
      AttrGen("title",        Words(new WordPool("agti", 500, 3, seed = 400), 3, 8)),
      AttrGen("description",  Words(new WordPool("agde", 800, 3, seed = 401), 10, 25, presence = 0.9)),
      AttrGen("manufacturer", Words(new WordPool("agmf", 80, 3, seed = 402), 1, 2)),
      AttrGen("category",     Words(new WordPool("agca", 30, 2, seed = 403), 1, 1)),
      AttrGen("price",        Numeric(5, 500)),
    ), nA = 600, nB = 1200, nMatches = 500, hardNoise, seed = 404)

  /** Walmart-Amazon (challenging): 2,554 x 22,074, 1,154 matches, 17 attrs.
    * Spec columns are sparse and disagree heavily between the two stores
    * (independent catalog curation), hence the aggressive per-attribute
    * noise override.
    */
  def prodWA(spark: SparkSession): ERDataset = {
    val specNoise = Noise(synonymRate = 0.7, typoRate = 0.2, dropRate = 0.3, nullifyRate = 0.4)
    val misc = (1 to 12).map { k =>
      AttrGen(s"spec$k", Words(new WordPool(s"wasp$k", 20, 2, seed = 500 + k), 1, 2,
        presence = 0.4, noiseOverride = Some(specNoise)))
    }
    generate(spark, "Prod-WA", Seq(
      AttrGen("title",       Words(new WordPool("wati", 500, 3, seed = 520), 3, 8)),
      AttrGen("description", Words(new WordPool("wade", 800, 3, seed = 521), 10, 25, presence = 0.85)),
      AttrGen("brand",       Words(new WordPool("wabr", 80, 3, seed = 522), 1, 2)),
      AttrGen("category",    Words(new WordPool("waca", 30, 2, seed = 523), 1, 1)),
      AttrGen("price",       Numeric(5, 800)),
    ) ++ misc, nA = 800, nB = 2000, nMatches = 500, hardNoise, seed = 530)
  }

  /** Fodors-Zagat (easy, tiny): 533 x 331, 112 matches, 7 attrs. */
  def restFZ(spark: SparkSession): ERDataset =
    generate(spark, "Rest-FZ", Seq(
      AttrGen("name",    Words(new WordPool("fzna", 250, 2, seed = 600), 1, 3)),
      AttrGen("addr",    Words(new WordPool("fzad", 150, 2, seed = 601), 2, 4)),
      AttrGen("city",    Words(new WordPool("fzci", 30, 2, seed = 602), 1, 1)),
      AttrGen("phone",   Numeric(2000000, 9999999, digits = 0)),
      AttrGen("cuisine", Words(new WordPool("fzcu", 25, 2, seed = 603), 1, 1)),
      AttrGen("zipcode", Numeric(10000, 99999, digits = 0)),
      AttrGen("website", Words(new WordPool("fzwe", 200, 1, seed = 604), 1, 1, presence = 0.6)),
    ), nA = 300, nB = 200, nMatches = 110,
      Noise(synonymRate = 0.06, typoRate = 0.02, dropRate = 0.02, nullifyRate = 0.01), seed = 605)

  /** The six main benchmark datasets of Tables 3–4, in paper order. */
  def all(spark: SparkSession): Seq[ERDataset] =
    Seq(prodWA(spark), prodAG(spark), pubDA(spark), pubDS(spark), pubDC(spark), restFZ(spark))
}
