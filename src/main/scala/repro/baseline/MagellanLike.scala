package repro.baseline

import org.apache.spark.sql.SparkSession
import repro.core.{DeepER, PRF}
import repro.data.ERDataset

/** A Magellan-style end-to-end entity matcher (Konda et al. 2016): for
  * every aligned attribute it engineers a battery of classical similarity
  * features (token Jaccard, trigram cosine, Jaro-Winkler, overlap, exact,
  * numeric closeness) and trains a random forest — the system DeepER is
  * compared against in Table 4.
  *
  * Per-tuple feature *profiles* (token sets, trigram vectors, capped
  * strings, parsed numerics) are precomputed once so pair featurization is
  * O(#attrs), mirroring Magellan's feature-table materialization.
  */
object MagellanLike {

  /** Precomputed per-attribute representation of one tuple. */
  final case class AttrProfile(
      raw: String,
      capped: String, // truncated for O(n^2) char metrics
      toks: Set[String],
      trigrams: Map[String, Int],
      numeric: Option[Double],
  )

  final case class Profile(attrs: Array[AttrProfile]) extends Serializable

  val featuresPerAttr = 6

  def profile(values: Seq[String], capLen: Int = 40): Profile =
    Profile(values.map { v =>
      AttrProfile(
        raw = v,
        capped = if (v == null) null else v.take(capLen),
        toks = StringSim.tokens(v),
        trigrams = StringSim.trigrams(if (v == null) null else v.take(120)),
        numeric = StringSim.parseNumber(v),
      )
    }.toArray)

  /** Pair feature vector: `featuresPerAttr` similarities per attribute. */
  def features(pa: Profile, pb: Profile): Array[Double] = {
    require(pa.attrs.length == pb.attrs.length)
    val out = new Array[Double](pa.attrs.length * featuresPerAttr)
    var k = 0
    while (k < pa.attrs.length) {
      val a = pa.attrs(k); val b = pb.attrs(k)
      val base = k * featuresPerAttr
      out(base)     = StringSim.jaccard(a.toks, b.toks)
      out(base + 1) = StringSim.trigramCosine(a.trigrams, b.trigrams)
      out(base + 2) = StringSim.jaroWinkler(a.capped, b.capped)
      out(base + 3) = StringSim.overlap(a.toks, b.toks)
      out(base + 4) = StringSim.exact(a.raw, b.raw)
      out(base + 5) = (a.numeric, b.numeric) match {
        case (Some(x), Some(y)) => StringSim.numericCloseness(x, y)
        case _                  => 0.0
      }
      k += 1
    }
    out
  }

  def collectProfiles(ds: ERDataset, df: org.apache.spark.sql.DataFrame): Map[Long, Profile] =
    ds.rawValues(df).map { case (id, vals) => id -> profile(vals.toSeq) }

  /** Run the baseline on the *same* labeled pairs and CV protocol as
    * DeepER (pairs come from [[DeepER.samplePairs]]) so Table 4 compares
    * classifiers, not protocols. Returns per-fold PRF.
    */
  def run(
      spark: SparkSession,
      ds: ERDataset,
      pairs: IndexedSeq[DeepER.LabeledPair],
      cfg: DeepER.Config,
      nTrees: Int = 20,
  ): Seq[PRF] = {
    val profA = collectProfiles(ds, ds.tableA)
    val profB = collectProfiles(ds, ds.tableB)
    val feats = pairs.map(p => features(profA(p.a), profB(p.b)))
    val labels = pairs.map(_.label)
    // Each fold grows its own forest from its own RNG, so the folds train
    // at once, each on its own thread.
    DeepER.crossValidateOn(feats, labels, cfg) { (xs, ys, s) =>
      DeepER.startFit {
        val forest = RandomForest.fit(xs, ys, nTrees = nTrees, seed = s)
        forest.predictProb _
      }
    }
  }
}
