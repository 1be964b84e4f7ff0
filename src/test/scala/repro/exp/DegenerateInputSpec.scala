package repro.exp

import java.util.concurrent.TimeoutException

import scala.concurrent.Await
import scala.concurrent.duration._
import scala.util.{Failure, Success, Try}

import repro.SparkSpec
import repro.core.DeepER
import repro.data.{ERDataset, ERDatasets}
import repro.nn.{AvgComp, BiLstmComp, Composition}

/** Degenerate inputs never hang and never fail without a clear message.
  * Five small versions of Rest-FZ go through every entry point of the
  * experiments: `deeperF1`, `magellanF1`, `netFolds` (averaging and
  * Bi-LSTM), `sweep`, `endToEnd` and `multiProbe`. Each call runs under a
  * timeout, and must either return numbers from 0 to 100 or throw an
  * [[IllegalArgumentException]] whose message names the dataset or the bound
  * it violates. The all-null input puts every tuple in one bucket per
  * table, so it is also the hot-bucket case.
  */
class DegenerateInputSpec extends SparkSpec {

  private val cfg = DeepER.Config(negRatio = 4, folds = 5, epochs = 2)
  private val lshConfigs = Seq((1, 10), (10, 1), (10, 10)) // K = 1 and K = 10, L = 1 and L = 10
  private val Timeout = 60.seconds

  private lazy val fz = ERDatasets.restFZ(spark)
  private lazy val (rawA, rawB, gold) =
    (ERDataset.rawValues(fz.tableA, fz.attrs), ERDataset.rawValues(fz.tableB, fz.attrs), DeepER.goldMatches(fz).sorted)

  /** Rest-FZ cut down to its first `nGold` gold pairs, B's tuple i
    * duplicating A's tuple i, plus `nExtra` unmatched tuples per table. With
    * `nulls`, every attribute of every tuple is null.
    */
  private def input(label: String, nGold: Int, nExtra: Int, nulls: Boolean): ERDataset = {
    val pairs = gold.take(nGold)
    def extra(raw: Map[Long, Array[String]], matched: Set[Long]) = raw.keys.filterNot(matched).toSeq.sorted.take(nExtra)
    val idsA = pairs.map(_._1) ++ extra(rawA, gold.map(_._1).toSet)
    val idsB = pairs.map(_._2) ++ extra(rawB, gold.map(_._2).toSet)
    def values(raw: Map[Long, Array[String]])(id: Long): Seq[String] =
      if (nulls) Seq.fill(fz.attrs.size)(null) else raw(id).toSeq
    ERDatasets.assemble(spark, s"${fz.name} $label", fz.attrs, idsA.map(values(rawA)),
      idsB.zipWithIndex.map { case (id, j) => (if (j < nGold) j.toLong else -1L, values(rawB)(id)) }, fz.forms)
  }

  /** `call`'s result, or the message of the [[IllegalArgumentException]] it
    * throws. Any other throwable, or no result within [[Timeout]], fails the
    * test.
    */
  private def outcome(what: String)(call: => Any): Either[String, Any] =
    Try(Await.result(DeepER.startFit(call), Timeout)) match {
      case Success(r) => Right(r)
      case Failure(e: IllegalArgumentException) => Left(e.getMessage)
      case Failure(_: TimeoutException) => fail(s"$what did not return within $Timeout")
      case Failure(e) => fail(s"$what threw $e", e)
    }

  /** Every Double in a result of nested products and collections. */
  private def numbers(r: Any): Seq[Double] = r match {
    case d: Double => Seq(d)
    case xs: Iterable[_] => xs.toSeq.flatMap(numbers)
    case p: Product => p.productIterator.toSeq.flatMap(numbers)
    case _ => Seq()
  }

  // (label, gold pairs, extra tuples per table, all null, the failure of the sampling and CV entry points)
  for ((label, nGold, nExtra, nulls, cvFailure) <- Seq(
      ("1x1", 1, 0, false, Some("samplePairs: no non-gold pair in 1048576 draws from 1 x 1 tuples with 1 gold matches")),
      ("2 gold", 2, 1, false, Some("stratified 5-fold CV needs at least 5 positives and 5 negatives, got 2 and 8")),
      ("6 gold", 6, 3, false, None),
      ("all-gold 3x3", 3, 0, false, Some("stratified 5-fold CV needs at least 5 positives and 5 negatives, got 3 and 12")),
      ("all-null", 6, 3, true, None)))
    test(s"Rest-FZ $label: every entry point returns or names the dataset or bound it fails on, within $Timeout") {
      val ds = input(label, nGold, nExtra, nulls)
      def prepared() = Experiments.prepare(spark, ds, Dicts.gloveLike(ds.forms), cfg.negRatio, cfg.seed)
      def net(comp: Composition) = DeepER.meanF1(
        DeepER.netFolds(DeepER.prepareNet(spark, ds, Dicts.gloveLike(ds.forms), cfg), comp, trainEmbeddings = false, cfg))
      def run(calls: (String, () => Any)*) = calls.map { case (name, call) => name -> outcome(s"${ds.name} $name")(call()) }
      val sampled = run(
        "deeperF1" -> (() => Experiments.deeperF1(prepared(), cfg)),
        "magellanF1" -> (() => Experiments.magellanF1(prepared(), cfg)),
        "netFolds averaging" -> (() => net(AvgComp)),
        "netFolds Bi-LSTM" -> (() => net(BiLstmComp(24))))
      val p = BlockingExperiments.prepareBlocks(spark, ds)
      val blocked = try run(
        "sweep" -> (() => BlockingExperiments.sweep(spark, p, lshConfigs)),
        "endToEnd" -> (() => BlockingExperiments.endToEnd(spark, p, lshConfigs)),
        "multiProbe" -> (() => BlockingExperiments.multiProbe(spark, p, Seq(0, 2), Seq(1, 10))))
      finally { p.drA.unpersist(); p.drB.unpersist() }

      for ((name, result) <- sampled)
        cvFailure match {
          case Some(message) => assert(result.left.exists(_.contains(message)), s"$name: $result")
          case None => assert(result.isRight, s"$name: $result")
        }
      for ((name, result) <- blocked) assert(result.isRight, s"$name: $result")
      for ((name, result) <- sampled ++ blocked; r <- result) {
        val xs = numbers(r)
        assert(xs.nonEmpty && xs.forall(x => x >= 0.0 && x <= 100.0), s"$name: $r")
      }
    }
}
