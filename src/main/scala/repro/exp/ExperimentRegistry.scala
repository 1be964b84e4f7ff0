package repro.exp

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.core.{DeepER, Tokenizer}
import repro.data.{ERDataset, ERDatasets, Nucleotide, Translation}
import repro.embedding.GloveTrainer
import repro.nn.{AvgComp, BiLstmComp, Sent2VecComp}

/** One printed result table: a `== title ==` block of [[Experiments.render]]. */
final case class Table(title: String, header: Seq[String], rows: Seq[Seq[String]]) {
  def render: String = Experiments.render(title, header, rows)
}

/** One Section-5 table or figure. `measure` runs its harness and `tables`
  * decides how the result prints. The bench suites check the shape of the
  * measured result and its text against `bench/golden/<name>.txt`;
  * `repro.jobs.Run` prints the text.
  */
final case class Experiment[R](name: String, measure: SparkSession => R, tables: R => Seq[Table]) {

  /** The printed text of a measurement: each table's block and a newline. */
  def text(r: R): String = tables(r).map(_.render + "\n").mkString
}

/** Every reproduced table and figure, each defined once: its name, the
  * titles and headers it prints, the paper's values and the code that
  * measures its rows, for the bench suites and `repro.jobs.Run`.
  */
object ExperimentRegistry {
  import BlockingExperiments.{endToEnd, multiProbe, prepareBlocks, sweep}
  import Experiments.{ablationCfg, ablationF1, deeperF1, fmtPct, magellanF1, prepare}

  /** An experiment that prints the rows of one harness as one table. */
  private def oneTable(name: String, title: String, rows: SparkSession => Seq[Seq[String]])(
      header: String*): Experiment[Seq[Seq[String]]] =
    Experiment(name, rows, (r: Seq[Seq[String]]) => Seq(Table(title, header, r)))

  /** A table with a row per dataset of `datasets`: the dataset's name, then
    * the values `measure` returns for it and the paper's values for it,
    * each printed by [[Experiments.fmtPct]]. `header` names the columns
    * after "dataset".
    */
  private def perDataset(name: String, title: String, header: String*)(paper: Map[String, Seq[Double]],
      datasets: SparkSession => Seq[ERDataset] = ERDatasets.all)(
      measure: (SparkSession, ERDataset) => Seq[Double]): Experiment[Seq[Seq[String]]] =
    oneTable(name, title, spark => datasets(spark).map(ds =>
      ds.name +: (measure(spark, ds) ++ paper(ds.name)).map(fmtPct)))("dataset" +: header: _*)

  /** The paper's Table 3 by dataset: tuples, matches and attributes. */
  val table3Paper: Map[String, Seq[String]] = Map(
    "Prod-WA" -> Seq("2,554 - 22,074", "1,154", "17"),
    "Prod-AG" -> Seq("1,363 - 3,226", "1,300", "5"),
    "Pub-DA"  -> Seq("2,616 - 2,294", "2,224", "4"),
    "Pub-DS"  -> Seq("2,616 - 64,263", "5,347", "4"),
    "Pub-DC"  -> Seq("1,823,978 - 2,512,927", "558,787", "4"),
    "Rest-FZ" -> Seq("533 - 331", "112", "7"),
  )

  val table3 = oneTable("table3", "Table 3: data statistics", spark => ERDatasets.all(spark).map(ds =>
    Seq(ds.name, s"${ds.nA} - ${ds.nB}", ds.nMatches.toString, ds.attrs.size.toString) ++ table3Paper(ds.name)))(
    "dataset", "tuples(repro)", "matches", "attrs", "tuples(paper)", "matches(paper)", "attrs(paper)")

  val table4 = {
    val paper = Map( // dataset -> (Magellan F1, DeepER F1), best published F1
      "Prod-WA" -> (Seq(82.99, 88.06), "89.3 (Crowd)"),
      "Prod-AG" -> (Seq(87.68, 96.03), "62.2 (ML)"),
      "Pub-DA"  -> (Seq(97.60, 98.60), "N/A"),
      "Pub-DS"  -> (Seq(98.84, 97.67), "92.1 (Crowd)"),
      "Pub-DC"  -> (Seq(96.40, 99.10), "95.2 (Crowd)"),
      "Rest-FZ" -> (Seq(100.0, 100.0), "96.5 (Crowd)"),
    )
    oneTable("table4", "Table 4: DeepER vs Magellan (measured | paper)", spark => ERDatasets.all(spark).map { ds =>
      val cfg = DeepER.Config(negRatio = 100, folds = 5)
      val p = prepare(spark, ds, Dicts.gloveLike(ds.forms), cfg.negRatio, cfg.seed)
      val dF1 = deeperF1(p, cfg)
      val (f1s, published) = paper(ds.name)
      ds.name +: (Seq(magellanF1(p, cfg), dF1) ++ f1s).map(fmtPct) :+ published
    })("dataset", "Magellan", "DeepER", "Magellan(paper)", "DeepER(paper)", "published")
  }

  /** Dictionary size with GloVe's shared-Unk OOV semantics: every
    * out-of-vocabulary word maps to the *same* vector, so a small
    * dictionary induces false similarity between unrelated rare words —
    * the failure mode behind the paper's steep drop. A third measured
    * column applies this repo's vocabulary retrofitting (Section 3.2) to
    * the small dictionary, showing how much of the gap it recovers (on
    * synthetic data: nearly all of it, see EXPERIMENTS.md).
    */
  val table5 = perDataset("table5", "Table 5: dictionary impact (measured | paper)",
    "GloVe", "GloVe-Wiki", "Wiki+retrofit", "GloVe(paper)", "GloVe-Wiki(paper)")(Map(
    "Pub-DA" -> Seq(98.60, 82.10), "Pub-DS" -> Seq(97.67, 77.80), "Pub-DC" -> Seq(99.10, 79.20),
    "Prod-WA" -> Seq(88.06, 77.40), "Prod-AG" -> Seq(96.03, 87.20), "Rest-FZ" -> Seq(100.0, 91.20))) { (spark, ds) =>
    val small = Dicts.gloveWikiLike(ds.forms).copy(sharedUnk = true)
    Seq(Dicts.gloveLike(ds.forms).copy(sharedUnk = true), small, Dicts.retrofitted(spark, small, ds))
      .map(ablationF1(spark, ds, _))
  }

  val table6 = perDataset("table6", "Table 6: embedding model impact (measured | paper)",
    "GloVe", "Word2Vec", "FastText", "GloVe(p)", "W2V(p)", "FT(p)")(Map(
    "Pub-DA" -> Seq(98.60, 97.90, 98.20), "Pub-DS" -> Seq(97.60, 96.90, 97.20),
    "Pub-DC" -> Seq(99.10, 99.00, 99.00), "Prod-WA" -> Seq(88.06, 86.10, 88.89),
    "Prod-AG" -> Seq(96.03, 95.10, 95.70), "Rest-FZ" -> Seq(100.0, 100.0, 100.0))) { (spark, ds) =>
    Seq(Dicts.gloveLike(ds.forms), Dicts.word2vecLike(ds.forms), Dicts.fastTextLike(ds.forms))
      .map(d => ablationF1(spark, ds, d.copy(sharedUnk = true)))
  }

  /** Both languages use GloVe's shared-Unk OOV semantics; the Spanish
    * dictionary has lower coverage and noisier vectors (a smaller training
    * corpus), and the translation itself is variant-inconsistent — the
    * pipeline runs unchanged, at a mildly lower F1, as in the paper.
    */
  val table7 = perDataset("table7", "Table 7: multilingual (measured | paper)",
    "English", "Spanish", "English(paper)", "Spanish(paper)")(Map(
    "Prod-AG" -> Seq(96.03, 89.10), "Rest-FZ" -> Seq(100.0, 92.60), "Pub-DS" -> Seq(97.67, 88.10)),
    spark => Seq(ERDatasets.prodAG(spark), ERDatasets.restFZ(spark), ERDatasets.pubDS(spark))) { (spark, ds) =>
    val en = ablationF1(spark, ds, Dicts.gloveLike(ds.forms).copy(sharedUnk = true))
    val es = Translation.translate(ds)
    Seq(en, ablationF1(spark, es, Dicts.spanishLike(es.forms).copy(sharedUnk = true)))
  }

  val fig6 = perDataset("fig6", "Figure 6: training size (measured | paper)",
    "10%", "30%", "50%", "10%(p)", "30%(p)", "50%(p)")(Map(
    "Pub-DA" -> Seq(98.63, 98.63, 98.63), "Pub-DS" -> Seq(97.04, 97.47, 97.78),
    "Pub-DC" -> Seq(99.61, 99.75, 99.80), "Prod-AG" -> Seq(91.44, 93.63, 94.74),
    "Prod-WA" -> Seq(89.06, 92.57, 93.77), "Rest-FZ" -> Seq(100.0, 100.0, 100.0))) { (spark, ds) =>
    val p = prepare(spark, ds, Dicts.gloveLike(ds.forms), ablationCfg.negRatio, ablationCfg.seed)
    Seq(0.1, 0.3, 0.5).map(f => deeperF1(p, ablationCfg.copy(trainFraction = f)))
  }

  val fig7 = perDataset("fig7", "Figure 7: label noise (measured | paper)",
    "clean", "10%", "30%", "clean(p)", "10%(p)", "30%(p)")(Map(
    "Pub-DA" -> Seq(98.63, 98.17, 98.19), "Pub-DS" -> Seq(97.04, 96.36, 93.30),
    "Pub-DC" -> Seq(99.61, 99.31, 98.43), "Prod-AG" -> Seq(91.44, 84.73, 80.00),
    "Prod-WA" -> Seq(89.06, 84.29, 71.74), "Rest-FZ" -> Seq(100.0, 100.0, 100.0))) { (spark, ds) =>
    val p = prepare(spark, ds, Dicts.gloveLike(ds.forms), ablationCfg.negRatio, ablationCfg.seed)
    Seq(0.0, 0.1, 0.3).map(n => deeperF1(p, ablationCfg.copy(labelNoise = n, trainFraction = 0.5)))
  }

  /** Uses the imprecise dictionary (see [[Dicts.impreciseLike]]): with
    * the perfect synthetic GloVe there is nothing for fine-tuning to
    * learn and the comparison degenerates.
    */
  val fig8 = perDataset("fig8", "Figure 8: embedding updates (measured | paper)",
    "NoUpdate", "Update", "NoUpdate(p)", "Update(p)")(Map(
    "Pub-DA" -> Seq(98.63, 98.63), "Pub-DS" -> Seq(97.04, 96.79), "Pub-DC" -> Seq(99.60, 99.61),
    "Prod-AG" -> Seq(89.55, 91.44), "Prod-WA" -> Seq(87.55, 89.06), "Rest-FZ" -> Seq(100.0, 100.0))) { (spark, ds) =>
    val cfg = DeepER.Config(negRatio = 4, folds = 2, epochs = 12)
    val p = DeepER.prepareNet(spark, ds, Dicts.impreciseLike(ds.forms), cfg)
    Seq(false, true).map(tuned => DeepER.meanF1(DeepER.netFolds(p, AvgComp, tuned, cfg)))
  }

  val fig9 = perDataset("fig9", "Figure 9: composition (measured | paper)",
    "Average", "Bi-LSTM", "Sent2Vec", "Avg(p)", "BiLSTM(p)", "S2V(p)")(Map(
    "Pub-DA" -> Seq(98.63, 98.44, 96.12), "Pub-DS" -> Seq(97.04, 95.45, 92.74),
    "Pub-DC" -> Seq(96.82, 99.60, 91.33), "Prod-AG" -> Seq(77.53, 91.44, 80.54),
    "Prod-WA" -> Seq(86.30, 89.06, 83.20), "Rest-FZ" -> Seq(100.0, 100.0, 100.0)),
    spark => Seq(ERDatasets.prodAG(spark), ERDatasets.pubDA(spark), ERDatasets.restFZ(spark))) { (spark, ds) =>
    val cfg = DeepER.Config(negRatio = 2, folds = 2, epochs = 16, maxTokensPerAttr = 12)
    val p = DeepER.prepareNet(spark, ds, Dicts.gloveLike(ds.forms), cfg)
    Seq(AvgComp -> false, BiLstmComp(24) -> false, Sent2VecComp -> true).map { case (comp, tuned) =>
      DeepER.meanF1(DeepER.netFolds(p, comp, tuned, cfg))
    }
  }

  /** Figure 10: PC and RR on Prod-AG and Pub-DS as K varies at L=10 (a-b)
    * and as L varies at K=4 (c-d), next to the paper's. Both series come
    * from one `sweep` per dataset, which joins once per K.
    */
  val fig10 = {
    val xs = Seq(1, 2, 4, 6, 8, 10) // the values of K, and of L
    // x -> the paper's (PC AG, PC DS, RR AG, RR DS), as K varies and as L varies
    val kPaper = Map(1 -> Seq(1.00, 1.00, 0.40, 0.08), 2 -> Seq(1.00, 1.00, 0.40, 0.08),
      4 -> Seq(0.98, 1.00, 0.39, 0.08), 6 -> Seq(0.93, 0.97, 0.34, 0.07),
      8 -> Seq(0.84, 0.90, 0.28, 0.05), 10 -> Seq(0.74, 0.81, 0.20, 0.04))
    val lPaper = Map(1 -> Seq(0.52, 0.60, 0.15, 0.03), 2 -> Seq(0.70, 0.80, 0.22, 0.05),
      4 -> Seq(0.87, 0.93, 0.31, 0.06), 6 -> Seq(0.94, 0.97, 0.35, 0.07),
      8 -> Seq(0.97, 0.99, 0.37, 0.08), 10 -> Seq(0.98, 1.00, 0.39, 0.08))
    def rows(ag: Seq[(Double, Double)], ds: Seq[(Double, Double)], paper: Map[Int, Seq[Double]]) =
      xs.lazyZip(ag).lazyZip(ds).map { case (x, (agPc, agRr), (dsPc, dsRr)) =>
        val p = paper(x)
        x.toString +: Seq(agPc, dsPc, p(0), p(1), agRr, dsRr, p(2), p(3)).map(fmtPct)
      }
    val pcRr = Seq("PC AG", "PC DS", "PC AG(p)", "PC DS(p)", "RR AG", "RR DS", "RR AG(p)", "RR DS(p)")
    Experiment[(Seq[Seq[String]], Seq[Seq[String]])]("fig10",
      spark => {
        def series(ds: ERDataset) = sweep(spark, prepareBlocks(spark, ds), xs.map((_, 10)) ++ xs.map((4, _))).splitAt(xs.size)
        val (agK, agL) = series(ERDatasets.prodAG(spark))
        val (dsK, dsL) = series(ERDatasets.pubDS(spark))
        (rows(agK, dsK, kPaper), rows(agL, dsL, lPaper))
      },
      { case (kRows, lRows) =>
        Seq(Table("Figure 10 a-b: vary K at L=10 (measured | paper)", "K" +: pcRr, kRows),
          Table("Figure 10 c-d: vary L at K=4 (measured | paper)", "L" +: pcRr, lRows))
      })
  }

  /** Figure 11's rows: (K, L, precision, recall). */
  type EndToEndRows = Seq[(Int, Int, Double, Double)]

  /** Both Figure 11 series come from one `endToEnd` call, so the blocked
    * classifier trains once, and the configs of each K share one join.
    */
  val fig11 = Experiment[(EndToEndRows, EndToEndRows)]("fig11",
    spark => endToEnd(spark, prepareBlocks(spark, ERDatasets.prodAG(spark)),
      Seq((1, 10), (4, 10), (10, 10), (4, 1), (4, 4), (4, 10))).splitAt(3),
    { case (kRows, lRows) =>
      def table(label: String, rows: EndToEndRows) =
        Table(s"Figure 11 ($label) Prod-AG", Seq("K", "L", "precision", "recall"),
          rows.map { case (k, l, pr, re) => Seq(k.toString, l.toString, fmtPct(pr), fmtPct(re)) })
      Seq(table("vary K at L=10", kRows), table("vary L at K=4", lRows))
    })

  val fig12 = {
    val paper = Map( // (mp, topN) -> recall on Prod-AG
      (0, 10) -> 0.16, (0, 20) -> 0.173, (0, 50) -> 0.186, (0, 100) -> 0.19,
      (1, 10) -> 0.33, (1, 20) -> 0.36, (1, 50) -> 0.41, (1, 100) -> 0.44,
      (2, 10) -> 0.42, (2, 20) -> 0.469, (2, 50) -> 0.53, (2, 100) -> 0.58)
    Experiment[Seq[(Int, Int, Double)]]("fig12",
      spark => multiProbe(spark, prepareBlocks(spark, ERDatasets.prodAG(spark))),
      rows => Seq(Table("Figure 12: multi-probe recall on Prod-AG (measured | paper)",
        Seq("MP", "top-N", "recall", "recall(paper)"),
        rows.map { case (mp, n, r) => Seq(mp.toString, n.toString, fmtPct(r), fmtPct(paper((mp, n)))) })))
  }

  /** Section 5.2: the nucleotide domain, with k-mer and metadata embeddings
    * learned from the dataset itself (Section 3.3, option 1).
    */
  val nucleotide = perDataset("nucleotide", "Nucleotide benchmark (measured | paper state of the art)",
    "DeepER", "hand-crafted ML", "DeepER(paper)", "SOTA(paper)")(Map("Nucleotide" -> Seq(87.40, 83.90)),
    spark => Seq(Nucleotide.generate(spark))) { (spark, ds) =>
    val tok = udf((s: String) => Tokenizer.tokenize(s))
    val docs = ds.tableA.unionByName(ds.tableB)
      .select(flatten(array(ds.attrs.map(a => tok(col(a).cast("string"))): _*)).as("toks"))
    val counts = GloveTrainer.cooccurrenceCounts(spark, docs, "toks", window = 4)
    val p = prepare(spark, ds, GloveTrainer.fit(counts, dim = 32, epochs = 25, seed = 5),
      ablationCfg.negRatio, ablationCfg.seed)
    val dF1 = deeperF1(p, ablationCfg)
    Seq(dF1, magellanF1(p, ablationCfg))
  }

  val all: Seq[Experiment[_]] =
    Seq(table3, table4, table5, table6, table7, fig6, fig7, fig8, fig9, fig10, fig11, fig12, nucleotide)
}
