package repro.baseline

import repro.core.{DeepER, PRF}
import repro.core.DeepER.Prepared
import repro.core.TupleEmbedder.Tokens

import scala.concurrent.Await
import scala.concurrent.duration.Duration

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

  /** Characters of a value that Jaro-Winkler compares. */
  private val CapLen = 40

  /** A tuple's profile from its raw values and each value's tokens ([[repro.core.Tokenizer.tokenize]]). */
  def profile(values: Seq[String], toks: Seq[Seq[String]]): Profile =
    Profile(values.zip(toks).map { case (v, t) =>
      AttrProfile(
        raw = v,
        capped = if (v == null) null else v.take(CapLen),
        toks = t.toSet,
        trigrams = StringSim.trigrams(if (v == null) null else v.take(120)),
        numeric = StringSim.parseNumber(v),
      )
    }.toArray)

  /** Each tuple's profile, by id, from the raw strings and tokens a preparation already holds. */
  def profiles(raw: Map[Long, Array[String]], toks: Tokens): Map[Long, Profile] =
    raw.map { case (id, vals) => id -> profile(vals.toSeq, toks(id).toSeq) }

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

  /** Contiguous chunks of the pairs whose [[features]] run at once, a [[DeepER.startFit]]
    * thread each; a constant, so the work split does not depend on the machine.
    */
  private val FeatureChunks = 8

  /** `pairs.map(p => features(profA(p.a), profB(p.b)))`, computed over [[FeatureChunks]]
    * contiguous chunks at once and joined in order. `features` is a pure function of one pair,
    * so the vectors are the serial ones.
    */
  def pairFeatures(profA: Map[Long, Profile], profB: Map[Long, Profile],
      pairs: IndexedSeq[DeepER.LabeledPair]): IndexedSeq[Array[Double]] = {
    val chunk = math.max(1, (pairs.length + FeatureChunks - 1) / FeatureChunks)
    pairs.grouped(chunk).toList
      .map(c => DeepER.startFit(c.map(p => features(profA(p.a), profB(p.b)))))
      .flatMap(Await.result(_, Duration.Inf)).toIndexedSeq
  }

  /** Run the baseline on the *same* labeled pairs and CV protocol as
    * DeepER (pairs come from [[DeepER.samplePairs]]) so Table 4 compares
    * classifiers, not protocols. The profiles are built from the strings and
    * tokens of the preparation, so no table is read again. Returns per-fold
    * PRF.
    */
  def run(p: Prepared, cfg: DeepER.Config, nTrees: Int = 20): Seq[PRF] = {
    val feats = pairFeatures(profiles(p.rawA, p.toksA), profiles(p.rawB, p.toksB), p.pairs)
    val labels = p.labels
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
