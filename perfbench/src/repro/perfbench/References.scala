package repro.perfbench

/** Reference outputs at the default seed. `bench` values are recorded at
  * full double precision and must match exactly; `paper` values are the
  * ones EXPERIMENTS.md prints and must match at its printed precision.
  */
object References {
  private val bench: Map[String, Map[String, Double]] = Map(
    "match-avg" -> Map("f1" -> 99.74999927661725),
    "match-lstm" -> Map("f1" -> 88.26503819897346),
    // Equal to EXPERIMENTS.md's Figure-11 (10, 10) row at its printed
    // precision.
    "resolve-lsh" -> Map("precision.k10l10" -> 0.712742980561555, "recall.k10l10" -> 0.66),
  )

  private val paper: Map[String, Map[String, Double]] = Map(
    "match-avg" -> Map("f1" -> 99.62),
    "match-lstm" -> Map("f1" -> 86.39),
    "resolve-lsh" -> Map(
      "precision.k1l10" -> 0.64, "recall.k1l10" -> 0.84,
      "precision.k4l10" -> 0.64, "recall.k4l10" -> 0.82,
      "precision.k10l10" -> 0.71, "recall.k10l10" -> 0.66,
      "probe_recall" -> 0.77),
  )

  def of(profile: String, workload: String, seed: Long): Option[Map[String, Double]] =
    if (seed != Main.DefaultSeed) None
    else (if (profile == "paper") paper else bench).get(workload)

  /** Output names whose value is off its reference. */
  def mismatches(profile: String, ref: Map[String, Double], got: Map[String, Double]): Seq[String] =
    ref.toSeq.sorted.collect {
      case (k, v) if !got.get(k).exists(g => if (profile == "paper") math.abs(g - v) <= 0.005 + 1e-9 else g == v) =>
        s"$k = ${got.get(k).fold("missing")(_.toString)}, reference $v"
    }
}
