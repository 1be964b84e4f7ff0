package repro.data

import org.apache.spark.sql.SparkSession

/** Synthetic nucleotide duplicate-detection benchmark, standing in for the
  * 21-organism benchmark of Chen, Zobel & Verspoor used in Section 5.2
  * ("Evaluating DeepER for Other Domains").
  *
  * Records are (sequence, organism, gene); duplicates are re-submissions of
  * the same sequence with mutation noise (substitutions + indels) and
  * organism naming variation (scientific vs common name — the semantic
  * signal a biomedical embedding knows and a string metric does not).
  * Sequences are exposed as overlapping k-mer tokens so that embeddings
  * can be *learned from the dataset itself* (Section 3.3 option 1) with
  * [[repro.embedding.GloveTrainer]]: there is no pre-trained dictionary
  * for this domain, exactly the paper's minimal-coverage scenario.
  */
object Nucleotide {
  private val bases = "ACGT"

  /** Organisms in the original benchmark. */
  private final val NOrganisms = 21

  def randomSeq(len: Int, rng: scala.util.Random): String =
    (1 to len).map(_ => bases(rng.nextInt(4))).mkString

  /** Mutate with per-base substitution and indel rates. */
  def mutate(s: String, subRate: Double, indelRate: Double, rng: scala.util.Random): String = {
    val sb = new StringBuilder
    s.foreach { c =>
      val u = rng.nextDouble()
      if (u < indelRate / 2) () // deletion
      else if (u < indelRate) { sb += bases(rng.nextInt(4)); sb += c } // insertion
      else if (u < indelRate + subRate) sb += bases(rng.nextInt(4))
      else sb += c
    }
    sb.toString
  }

  /** Overlapping k-mers with the given stride, space-joined. */
  def kmerize(s: String, k: Int = 4, stride: Int = 2): String =
    (0 to s.length - k by stride).map(i => s.substring(i, i + k)).mkString(" ")

  /** Generate the benchmark as an [[ERDataset]]-shaped pair of tables. */
  def generate(
      spark: SparkSession,
      nA: Int = 400,
      nB: Int = 500,
      nMatches: Int = 300,
      seqLen: Int = 120,
      seed: Long = 900,
  ): ERDataset = {
    val rng = new scala.util.Random(seed)
    // Each organism has a scientific and a common name (lexically
    // unrelated). A record usually carries one of them, but ~30% of
    // records mention both ("Homo sapiens (human)") — the co-mention is
    // what lets corpus-trained embeddings place the two names together,
    // mirroring how biomedical embeddings learn synonymy.
    val orgForms = Vector.tabulate(NOrganisms)(i => Vector(s"orgsci$i", s"orgcom$i"))
    val genePool = new WordPool("gene", 60, 2, seed = seed + 1)
    def geneForms(g: Tok): Vector[String] = {
      val c = g.concept.stripPrefix("gene").toInt
      genePool.formsOf(c).take(2) // symbol + full name, no abbreviation
    }

    final case class Raw(seq: String, org: Int, gene: Tok)
    val aRaw = Vector.fill(nA)(Raw(randomSeq(seqLen, rng), rng.nextInt(NOrganisms), genePool.drawToken(rng)))
    val dupes = (0 until nMatches).map { i =>
      val r = aRaw(i)
      (i.toLong, r.copy(seq = mutate(r.seq, subRate = 0.20, indelRate = 0.10, rng = rng)))
    }
    val fresh = (0 until (nB - nMatches)).map(_ =>
      (-1L, Raw(randomSeq(seqLen, rng), rng.nextInt(NOrganisms), genePool.drawToken(rng))))
    val shuffled = rng.shuffle(dupes ++ fresh)

    def dualOrSingle(forms: Vector[String]): String =
      if (rng.nextDouble() < 0.3) forms.mkString(" ") else forms(rng.nextInt(forms.size))
    def values(r: Raw): Seq[String] = Seq(kmerize(r.seq), dualOrSingle(orgForms(r.org)), dualOrSingle(geneForms(r.gene)))
    // A is rendered before B: both draw from `rng`.
    val aRows = aRaw.map(values)
    val bRows = shuffled.map { case (aId, r) => (aId, values(r)) }
    ERDatasets.assemble(spark, "Nucleotide", Seq("sequence", "organism", "gene"), aRows, bRows,
      forms = Nil) // no pre-trained vocabulary: embeddings are learned from data
  }
}
