package repro.exp

import org.apache.spark.sql.SparkSession
import repro.baseline.MagellanLike
import repro.core._
import repro.core.DeepER.Prepared
import repro.data._
import repro.embedding.EmbeddingDict
import repro.nn._

/** Harnesses reproducing the evaluation tables of Section 5. Each returns
  * printable rows, measured next to the paper's numbers (EXPERIMENTS.md
  * records them with commentary). [[ExperimentRegistry]] names each table
  * and gives it its title and header, for the benches and `repro.jobs.Run`.
  */
object Experiments {

  def fmtPct(x: Double): String = f"$x%.2f"

  /** Render an aligned ASCII table. */
  def render(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def line(r: Seq[String]) = r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
    (s"== $title ==" +: line(header) +: line(widths.map("-" * _)) +: rows.map(line)).mkString("\n")
  }

  /** The per-dataset preparation of Tables 4–7, Figures 6–7 and the nucleotide run. */
  def prepare(spark: SparkSession, ds: ERDataset, dict: EmbeddingDict, negRatio: Int, seed: Long = 7): Prepared =
    DeepER.embedAndSample(spark, ds, dict, negRatio, seed)

  /** DeepER-avg per-fold PRF on prepared features with the Figure-5 head.
    * Each fold fits its own head, so the folds train at once, each on its
    * own thread ([[DeepER.startFit]]).
    */
  def deeperFolds(p: Prepared, cfg: DeepER.Config): Seq[PRF] =
    DeepER.crossValidateOn(p.cosFeats, p.labels, cfg) { (xs, ys, s) =>
      DeepER.startFit {
        val mlp = new MLPClassifier(p.ds.attrs.size, cfg.hidden, s)
        mlp.fit(xs, ys, cfg.epochs, cfg.batchSize, cfg.lr, cfg.l2, s)
        mlp.predictProb _
      }
    }

  /** DeepER-avg F1 (%): the mean over [[deeperFolds]]. */
  def deeperF1(p: Prepared, cfg: DeepER.Config): Double = DeepER.meanF1(deeperFolds(p, cfg))

  /** Magellan-like baseline F1 (%) on the *same* pairs and folds. */
  def magellanF1(spark: SparkSession, p: Prepared, cfg: DeepER.Config): Double =
    DeepER.meanF1(MagellanLike.run(spark, p.ds, p.pairs, cfg))

  /** The training config of Tables 5–7, Figures 6–7 and the nucleotide run. */
  private val ablationCfg = DeepER.Config(negRatio = 4, folds = 3, epochs = 15)

  // ------------------------------------------------------------------
  // Table 3: dataset statistics
  // ------------------------------------------------------------------
  def table3(spark: SparkSession): Seq[Seq[String]] =
    ERDatasets.all(spark).map { ds =>
      val (paperT, paperM, paperA) = ERDatasets.paperStats(ds.name)
      Seq(ds.name, s"${ds.nA} - ${ds.nB}", ds.nMatches.toString, ds.attrs.size.toString,
        paperT, paperM, paperA.toString)
    }

  // ------------------------------------------------------------------
  // Table 4: DeepER vs Magellan (paper also lists published results)
  // ------------------------------------------------------------------
  val table4Paper: Map[String, (Double, Double, String)] = Map(
    // dataset -> (Magellan F1, DeepER F1, published)
    "Prod-WA" -> ((82.99, 88.06, "89.3 (Crowd)")),
    "Prod-AG" -> ((87.68, 96.03, "62.2 (ML)")),
    "Pub-DA"  -> ((97.60, 98.60, "N/A")),
    "Pub-DS"  -> ((98.84, 97.67, "92.1 (Crowd)")),
    "Pub-DC"  -> ((96.40, 99.10, "95.2 (Crowd)")),
    "Rest-FZ" -> ((100.0, 100.0, "96.5 (Crowd)")),
  )

  def table4(spark: SparkSession): Seq[Seq[String]] =
    ERDatasets.all(spark).map { ds =>
      val cfg = DeepER.Config(negRatio = 100, folds = 5)
      val p = prepare(spark, ds, Dicts.gloveLike(ds.forms), cfg.negRatio, cfg.seed)
      val dF1 = deeperF1(p, cfg)
      val mF1 = magellanF1(spark, p, cfg)
      val (pm, pd, pub) = table4Paper(ds.name)
      Seq(ds.name, fmtPct(mF1), fmtPct(dF1), fmtPct(pm), fmtPct(pd), pub)
    }

  // ------------------------------------------------------------------
  // Table 5: embedding dictionary size (GloVe-840B vs GloVe-Wiki)
  // ------------------------------------------------------------------
  val table5Paper: Map[String, (Double, Double)] = Map(
    "Pub-DA" -> ((98.60, 82.10)), "Pub-DS" -> ((97.67, 77.80)), "Pub-DC" -> ((99.10, 79.20)),
    "Prod-WA" -> ((88.06, 77.40)), "Prod-AG" -> ((96.03, 87.20)), "Rest-FZ" -> ((100.0, 91.20)))

  /** Dictionary-size impact with GloVe's shared-Unk OOV semantics: every
    * out-of-vocabulary word maps to the *same* vector, so a small
    * dictionary induces false similarity between unrelated rare words —
    * the failure mode behind the paper's steep drop. A third measured
    * column applies this repo's vocabulary retrofitting (Section 3.2) to
    * the small dictionary, showing how much of the gap it recovers (on
    * synthetic data: nearly all of it, see EXPERIMENTS.md).
    */
  def table5(spark: SparkSession): Seq[Seq[String]] =
    ERDatasets.all(spark).map { ds =>
      val cfg = ablationCfg
      val big = Dicts.gloveLike(ds.forms).copy(sharedUnk = true)
      val small = Dicts.gloveWikiLike(ds.forms).copy(sharedUnk = true)
      val smallRf = Dicts.retrofitted(spark, small, ds)
      val f1Big = deeperF1(prepare(spark, ds, big, cfg.negRatio, cfg.seed), cfg)
      val f1Small = deeperF1(prepare(spark, ds, small, cfg.negRatio, cfg.seed), cfg)
      val f1Rf = deeperF1(prepare(spark, ds, smallRf, cfg.negRatio, cfg.seed), cfg)
      val (pb, ps) = table5Paper(ds.name)
      Seq(ds.name, fmtPct(f1Big), fmtPct(f1Small), fmtPct(f1Rf), fmtPct(pb), fmtPct(ps))
    }

  // ------------------------------------------------------------------
  // Table 6: embedding model (GloVe / Word2Vec / FastText)
  // ------------------------------------------------------------------
  val table6Paper: Map[String, (Double, Double, Double)] = Map(
    "Pub-DA" -> ((98.60, 97.90, 98.20)), "Pub-DS" -> ((97.60, 96.90, 97.20)),
    "Pub-DC" -> ((99.10, 99.00, 99.00)), "Prod-WA" -> ((88.06, 86.10, 88.89)),
    "Prod-AG" -> ((96.03, 95.10, 95.70)), "Rest-FZ" -> ((100.0, 100.0, 100.0)))

  def table6(spark: SparkSession): Seq[Seq[String]] =
    ERDatasets.all(spark).map { ds =>
      val cfg = ablationCfg
      val f1s = Seq(Dicts.gloveLike(ds.forms), Dicts.word2vecLike(ds.forms), Dicts.fastTextLike(ds.forms))
        .map(d => deeperF1(prepare(spark, ds, d.copy(sharedUnk = true), cfg.negRatio, cfg.seed), cfg))
      val (pg, pw, pf) = table6Paper(ds.name)
      Seq(ds.name, fmtPct(f1s(0)), fmtPct(f1s(1)), fmtPct(f1s(2)), fmtPct(pg), fmtPct(pw), fmtPct(pf))
    }

  // ------------------------------------------------------------------
  // Table 7: multilingual (English vs translated Spanish)
  // ------------------------------------------------------------------
  val table7Paper: Map[String, (Double, Double)] = Map(
    "Prod-AG" -> ((96.03, 89.10)), "Rest-FZ" -> ((100.0, 92.60)), "Pub-DS" -> ((97.67, 88.10)))

  /** Both languages use GloVe's shared-Unk OOV semantics; the Spanish
    * dictionary has lower coverage and noisier vectors (a smaller training
    * corpus), and the translation itself is variant-inconsistent — the
    * pipeline runs unchanged, at a mildly lower F1, as in the paper.
    */
  def table7(spark: SparkSession): Seq[Seq[String]] = {
    val cfg = ablationCfg
    val base = Seq(ERDatasets.prodAG(spark), ERDatasets.restFZ(spark), ERDatasets.pubDS(spark))
    base.map { ds =>
      val en = deeperF1(prepare(spark, ds,
        Dicts.gloveLike(ds.forms).copy(sharedUnk = true), cfg.negRatio, cfg.seed), cfg)
      val esDs = Translation.translate(ds)
      val es = deeperF1(prepare(spark, esDs,
        Dicts.spanishLike(esDs.forms).copy(sharedUnk = true), cfg.negRatio, cfg.seed), cfg)
      val (pe, ps) = table7Paper(ds.name)
      Seq(ds.name, fmtPct(en), fmtPct(es), fmtPct(pe), fmtPct(ps))
    }
  }

  // ------------------------------------------------------------------
  // Figure 6: varying training-data fraction
  // ------------------------------------------------------------------
  val fig6Paper: Map[String, (Double, Double, Double)] = Map(
    "Pub-DA" -> ((98.63, 98.63, 98.63)), "Pub-DS" -> ((97.04, 97.47, 97.78)),
    "Pub-DC" -> ((99.61, 99.75, 99.80)), "Prod-AG" -> ((91.44, 93.63, 94.74)),
    "Prod-WA" -> ((89.06, 92.57, 93.77)), "Rest-FZ" -> ((100.0, 100.0, 100.0)))

  def trainingSize(spark: SparkSession): Seq[Seq[String]] =
    ERDatasets.all(spark).map { ds =>
      val cfg = ablationCfg
      val p = prepare(spark, ds, Dicts.gloveLike(ds.forms), cfg.negRatio, cfg.seed)
      val f1s = Seq(0.1, 0.3, 0.5).map(f => deeperF1(p, cfg.copy(trainFraction = f)))
      val (a, b, c) = fig6Paper(ds.name)
      Seq(ds.name, fmtPct(f1s(0)), fmtPct(f1s(1)), fmtPct(f1s(2)), fmtPct(a), fmtPct(b), fmtPct(c))
    }

  // ------------------------------------------------------------------
  // Figure 7: label noise
  // ------------------------------------------------------------------
  val fig7Paper: Map[String, (Double, Double, Double)] = Map(
    "Pub-DA" -> ((98.63, 98.17, 98.19)), "Pub-DS" -> ((97.04, 96.36, 93.30)),
    "Pub-DC" -> ((99.61, 99.31, 98.43)), "Prod-AG" -> ((91.44, 84.73, 80.00)),
    "Prod-WA" -> ((89.06, 84.29, 71.74)), "Rest-FZ" -> ((100.0, 100.0, 100.0)))

  def labelNoise(spark: SparkSession): Seq[Seq[String]] =
    ERDatasets.all(spark).map { ds =>
      val cfg = ablationCfg
      val p = prepare(spark, ds, Dicts.gloveLike(ds.forms), cfg.negRatio, cfg.seed)
      val f1s = Seq(0.0, 0.1, 0.3).map(n =>
        deeperF1(p, cfg.copy(labelNoise = n, trainFraction = 0.5)))
      val (a, b, c) = fig7Paper(ds.name)
      Seq(ds.name, fmtPct(f1s(0)), fmtPct(f1s(1)), fmtPct(f1s(2)), fmtPct(a), fmtPct(b), fmtPct(c))
    }

  // ------------------------------------------------------------------
  // Figure 8: static vs fine-tuned embeddings (end-to-end network)
  // ------------------------------------------------------------------
  val fig8Paper: Map[String, (Double, Double)] = Map(
    "Pub-DA" -> ((98.63, 98.63)), "Pub-DS" -> ((97.04, 96.79)), "Pub-DC" -> ((99.60, 99.61)),
    "Prod-AG" -> ((89.55, 91.44)), "Prod-WA" -> ((87.55, 89.06)), "Rest-FZ" -> ((100.0, 100.0)))

  /** Uses the imprecise dictionary (see [[Dicts.impreciseLike]]): with
    * the perfect synthetic GloVe there is nothing for fine-tuning to
    * learn and the comparison degenerates.
    */
  def vectorUpdate(spark: SparkSession): Seq[Seq[String]] =
    ERDatasets.all(spark).map { ds =>
      val cfg = DeepER.Config(negRatio = 4, folds = 2, epochs = 12)
      val p = DeepER.prepareNet(spark, ds, Dicts.impreciseLike(ds.forms), cfg)
      val frozen = DeepER.meanF1(DeepER.netFolds(p, AvgComp, trainEmbeddings = false, cfg))
      val tuned = DeepER.meanF1(DeepER.netFolds(p, AvgComp, trainEmbeddings = true, cfg))
      val (pf, pt) = fig8Paper(ds.name)
      Seq(ds.name, fmtPct(frozen), fmtPct(tuned), fmtPct(pf), fmtPct(pt))
    }

  // ------------------------------------------------------------------
  // Figure 9: composition (Average vs Bi-LSTM vs Sentence2Vec-like)
  // ------------------------------------------------------------------
  val fig9Paper: Map[String, (Double, Double, Double)] = Map(
    "Pub-DA" -> ((98.63, 98.44, 96.12)), "Pub-DS" -> ((97.04, 95.45, 92.74)),
    "Pub-DC" -> ((96.82, 99.60, 91.33)), "Prod-AG" -> ((77.53, 91.44, 80.54)),
    "Prod-WA" -> ((86.30, 89.06, 83.20)), "Rest-FZ" -> ((100.0, 100.0, 100.0)))

  def composition(spark: SparkSession): Seq[Seq[String]] = {
    val names = Seq("Pub-DA", "Prod-AG", "Rest-FZ")
    val cfg = DeepER.Config(negRatio = 2, folds = 2, epochs = 16, maxTokensPerAttr = 12)
    ERDatasets.all(spark).filter(d => names.contains(d.name)).map { ds =>
      val p = DeepER.prepareNet(spark, ds, Dicts.gloveLike(ds.forms), cfg)
      val avg = DeepER.meanF1(DeepER.netFolds(p, AvgComp, trainEmbeddings = false, cfg))
      val bi = DeepER.meanF1(DeepER.netFolds(p, BiLstmComp(24), trainEmbeddings = false, cfg))
      val s2v = DeepER.meanF1(DeepER.netFolds(p, Sent2VecComp, trainEmbeddings = true, cfg))
      val (pa, pb, ps) = fig9Paper(ds.name)
      Seq(ds.name, fmtPct(avg), fmtPct(bi), fmtPct(s2v), fmtPct(pa), fmtPct(pb), fmtPct(ps))
    }
  }

  // ------------------------------------------------------------------
  // Section 5.2: nucleotide domain (embeddings learned from the data)
  // ------------------------------------------------------------------
  def nucleotide(spark: SparkSession): Seq[Seq[String]] = {
    import org.apache.spark.sql.functions._
    import repro.embedding.GloveTrainer
    val cfg = ablationCfg
    val ds = Nucleotide.generate(spark)
    // Learn k-mer + metadata embeddings from the dataset itself (§3.3 opt 1).
    val tok = udf((s: String) => Tokenizer.tokenize(s))
    val docs = ds.tableA.unionByName(ds.tableB)
      .select(flatten(array(ds.attrs.map(a => tok(col(a).cast("string"))): _*)).as("toks"))
    val counts = GloveTrainer.cooccurrenceCounts(spark, docs, "toks", window = 4)
    val dict = GloveTrainer.fit(counts, dim = 32, epochs = 25, seed = 5)
    val p = prepare(spark, ds, dict, cfg.negRatio, cfg.seed)
    val dF1 = deeperF1(p, cfg)
    val mF1 = magellanF1(spark, p, cfg)
    Seq(Seq("Nucleotide", fmtPct(dF1), fmtPct(mF1), "87.40", "83.90"))
  }
}
