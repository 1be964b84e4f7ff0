package repro.exp

import repro.SparkSpec

/** The one check of a registry entry, shared by [[ExperimentRegistrySpec]]
  * and the bench.
  */
trait ExperimentChecks extends SparkSpec {

  /** Measures `e` once and asserts that none of its shape claims is
    * violated. It then hands the text to `beforeGolden` and asserts that the
    * text equals `bench/golden/<name>.txt`, a test resource.
    */
  def checkExperiment[R](e: Experiment[R])(beforeGolden: String => Unit): Unit = {
    val r = e.measure(spark)
    val violated = e.shape(r)
    assert(violated.isEmpty, s"${e.name} violates its shape claims: ${violated.mkString("; ")}")
    val text = e.text(r)
    beforeGolden(text)
    val golden = Option(getClass.getResourceAsStream(s"/${e.name}.txt"))
      .map(in => try new String(in.readAllBytes(), "UTF-8") finally in.close())
      .getOrElse(fail(s"no bench/golden/${e.name}.txt"))
    assert(text == golden, s"${e.name}: the printed text differs from bench/golden/${e.name}.txt")
  }
}
