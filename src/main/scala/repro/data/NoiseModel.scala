package repro.data

/** Perturbation model applied to a clean record to produce its duplicate,
  * and label-noise injection for the Figure-7 experiment.
  *
  * Rates are per-token (synonym/typo/drop) or per-attribute (nullify).
  * "Easy" datasets of the paper get low rates; "challenging" ones get high
  * synonym/typo rates plus token reordering in long attributes.
  */
final case class Noise(
    synonymRate: Double = 0.1,
    typoRate: Double = 0.05,
    dropRate: Double = 0.05,
    nullifyRate: Double = 0.02,
    shuffleRate: Double = 0.0,
    numericJitter: Double = 0.0,
) extends Serializable

object NoiseModel {
  private val alphabet = "abcdefghijklmnopqrstuvwxyz"

  /** Single random character edit (substitute/insert/delete); typically
    * yields an out-of-vocabulary token — the scenario Section 3.2 targets.
    */
  def typo(w: String, rng: scala.util.Random): String =
    if (w.isEmpty) w
    else rng.nextInt(3) match {
      case 0 => // substitute
        val i = rng.nextInt(w.length)
        w.updated(i, alphabet(rng.nextInt(26)))
      case 1 => // insert
        val i = rng.nextInt(w.length + 1)
        w.substring(0, i) + alphabet(rng.nextInt(26)) + w.substring(i)
      case _ => // delete
        val i = rng.nextInt(w.length)
        w.substring(0, i) + w.substring(i + 1)
    }

  /** Perturb one attribute's token sequence, drawn from `pool`, into its duplicate's version. */
  def perturbAttr(toks: Vector[Tok], noise: Noise, pool: WordPool, rng: scala.util.Random): Vector[Tok] = {
    if (rng.nextDouble() < noise.nullifyRate) return Vector.empty
    var out = toks.flatMap { t =>
      if (rng.nextDouble() < noise.dropRate && toks.size > 1) None
      else {
        var tt = t
        if (rng.nextDouble() < noise.synonymRate)
          tt = pool.synonym(tt, rng)
        if (rng.nextDouble() < noise.typoRate)
          tt = tt.copy(form = typo(tt.form, rng))
        Some(tt)
      }
    }
    if (out.size > 1 && rng.nextDouble() < noise.shuffleRate)
      out = rng.shuffle(out)
    if (out.isEmpty && toks.nonEmpty) Vector(toks(rng.nextInt(toks.size))) else out
  }

  /** Jitter a numeric string by ±rate (e.g. price differences between
    * Walmart and Amazon listings). Non-numeric input is returned as is.
    */
  def jitterNumeric(s: String, rate: Double, rng: scala.util.Random): String =
    try {
      val v = s.toDouble
      f"${v * (1.0 + (rng.nextDouble() * 2 - 1) * rate)}%.2f"
    } catch { case _: NumberFormatException => s }

  /** Flip a fraction of labels (Figure 7: impact of incorrect labels).
    * Deterministic in `seed`; preserves order.
    */
  def flipLabels(labels: IndexedSeq[Double], fraction: Double, seed: Long): IndexedSeq[Double] = {
    val rng = new scala.util.Random(seed)
    labels.map(y => if (rng.nextDouble() < fraction) 1.0 - y else y)
  }
}
