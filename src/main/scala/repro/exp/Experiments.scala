package repro.exp

import org.apache.spark.sql.SparkSession
import repro.baseline.MagellanLike
import repro.core._
import repro.core.DeepER.Prepared
import repro.data.ERDataset
import repro.embedding.EmbeddingDict
import repro.nn._

/** The steps that the evaluation tables of Section 5 share: preparing a
  * dataset, the DeepER-avg and Magellan F1s, and printing. Each table's
  * rows, headers and paper values are defined once, in its
  * [[ExperimentRegistry]] entry; EXPERIMENTS.md records the numbers with
  * commentary.
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
  def magellanF1(p: Prepared, cfg: DeepER.Config): Double = DeepER.meanF1(MagellanLike.run(p, cfg))

  /** The training config of Tables 5–7, Figures 6–7 and the nucleotide run. */
  val ablationCfg: DeepER.Config = DeepER.Config(negRatio = 4, folds = 3, epochs = 15)

  /** DeepER-avg F1 (%) of `ds` embedded with `dict`, under [[ablationCfg]]. */
  def ablationF1(spark: SparkSession, ds: ERDataset, dict: EmbeddingDict): Double =
    deeperF1(prepare(spark, ds, dict, ablationCfg.negRatio, ablationCfg.seed), ablationCfg)
}
