package repro.exp

import org.apache.spark.sql.SparkSession
import repro.data.ERDatasets

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

/** Every reproduced table and figure, each defined once with its name,
  * titles and headers, for the bench suites and `repro.jobs.Run`.
  */
object ExperimentRegistry {
  import BlockingExperiments.{endToEnd, kAndLSeries, multiProbe, prepareBlocks}
  import Experiments.fmtPct

  /** An experiment that prints the rows of one harness as one table. */
  private def oneTable(name: String, title: String, rows: SparkSession => Seq[Seq[String]])(
      header: String*): Experiment[Seq[Seq[String]]] =
    Experiment(name, rows, (r: Seq[Seq[String]]) => Seq(Table(title, header, r)))

  val table3 = oneTable("table3", "Table 3: data statistics", Experiments.table3)(
    "dataset", "tuples(repro)", "matches", "attrs", "tuples(paper)", "matches(paper)", "attrs(paper)")
  val table4 = oneTable("table4", "Table 4: DeepER vs Magellan (measured | paper)", Experiments.table4)(
    "dataset", "Magellan", "DeepER", "Magellan(paper)", "DeepER(paper)", "published")
  val table5 = oneTable("table5", "Table 5: dictionary impact (measured | paper)", Experiments.table5)(
    "dataset", "GloVe", "GloVe-Wiki", "Wiki+retrofit", "GloVe(paper)", "GloVe-Wiki(paper)")
  val table6 = oneTable("table6", "Table 6: embedding model impact (measured | paper)", Experiments.table6)(
    "dataset", "GloVe", "Word2Vec", "FastText", "GloVe(p)", "W2V(p)", "FT(p)")
  val table7 = oneTable("table7", "Table 7: multilingual (measured | paper)", Experiments.table7)(
    "dataset", "English", "Spanish", "English(paper)", "Spanish(paper)")
  val fig6 = oneTable("fig6", "Figure 6: training size (measured | paper)", Experiments.trainingSize)(
    "dataset", "10%", "30%", "50%", "10%(p)", "30%(p)", "50%(p)")
  val fig7 = oneTable("fig7", "Figure 7: label noise (measured | paper)", Experiments.labelNoise)(
    "dataset", "clean", "10%", "30%", "clean(p)", "10%(p)", "30%(p)")
  val fig8 = oneTable("fig8", "Figure 8: embedding updates (measured | paper)", Experiments.vectorUpdate)(
    "dataset", "NoUpdate", "Update", "NoUpdate(p)", "Update(p)")
  val fig9 = oneTable("fig9", "Figure 9: composition (measured | paper)", Experiments.composition)(
    "dataset", "Average", "Bi-LSTM", "Sent2Vec", "Avg(p)", "BiLSTM(p)", "S2V(p)")

  val fig10 = Experiment[(Seq[Seq[String]], Seq[Seq[String]])]("fig10",
    BlockingExperiments.blockingSweepRows,
    { case (kRows, lRows) =>
      val pcRr = Seq("PC AG", "PC DS", "PC AG(p)", "PC DS(p)", "RR AG", "RR DS", "RR AG(p)", "RR DS(p)")
      Seq(Table("Figure 10 a-b: vary K at L=10 (measured | paper)", "K" +: pcRr, kRows),
        Table("Figure 10 c-d: vary L at K=4 (measured | paper)", "L" +: pcRr, lRows))
    })

  /** Figure 11's rows: (K, L, precision, recall). */
  type EndToEndRows = Seq[(Int, Int, Double, Double)]

  /** Both Figure 11 series come from one `endToEnd` call, so the blocked
    * classifier trains once.
    */
  val fig11 = Experiment[(EndToEndRows, EndToEndRows)]("fig11",
    spark => {
      val p = prepareBlocks(spark, ERDatasets.prodAG(spark))
      kAndLSeries(Seq(1, 4, 10), Seq(1, 4, 10))(endToEnd(spark, p, _))
    },
    { case (kRows, lRows) =>
      def table(label: String, rows: EndToEndRows) =
        Table(s"Figure 11 ($label) Prod-AG", Seq("K", "L", "precision", "recall"),
          rows.map { case (k, l, pr, re) => Seq(k.toString, l.toString, fmtPct(pr), fmtPct(re)) })
      Seq(table("vary K at L=10", kRows), table("vary L at K=4", lRows))
    })

  val fig12 = Experiment[Seq[(Int, Int, Double)]]("fig12",
    spark => multiProbe(spark, prepareBlocks(spark, ERDatasets.prodAG(spark))),
    rows => Seq(Table("Figure 12: multi-probe recall on Prod-AG (measured | paper)",
      Seq("MP", "top-N", "recall", "recall(paper)"),
      rows.map { case (mp, n, r) =>
        Seq(mp.toString, n.toString, fmtPct(r), fmtPct(BlockingExperiments.fig12Paper((mp, n)))) })))

  val nucleotide = oneTable("nucleotide", "Nucleotide benchmark (measured | paper state of the art)",
    Experiments.nucleotide)("dataset", "DeepER", "hand-crafted ML", "DeepER(paper)", "SOTA(paper)")

  val all: Seq[Experiment[_]] =
    Seq(table3, table4, table5, table6, table7, fig6, fig7, fig8, fig9, fig10, fig11, fig12, nucleotide)
}
