package repro.exp

import repro.SparkSpec
import repro.jobs.Run

class ExperimentRegistrySpec extends SparkSpec {

  private val names = Seq("table3", "table4", "table5", "table6", "table7",
    "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "nucleotide")

  test("the registry lists each of the 13 experiments once, by its short name") {
    val registered = ExperimentRegistry.all.map(_.name)
    assert(registered.distinct == registered, registered)
    assert(registered == names)
  }

  test("Run rejects a missing, unknown or extra name with a usage line listing every name") {
    for (args <- Seq(Seq(), Seq("table8"), Seq("Table3"), Seq("table3", "table4"))) {
      val message = Run.experiment(args).left.getOrElse(fail(s"Run accepted $args"))
      assert(message.contains("usage: repro.jobs.Run <experiment>, one of: " + names.mkString(", ")), message)
    }
    assert(Run.experiment(Seq("table8")).left.exists(_.startsWith("unknown experiment 'table8'")))
    assert(Run.experiment(Seq("fig11")).map(_.name) == Right("fig11"))
  }

  test("table3 renders the Table 3 block of the bench output byte for byte") {
    val e = ExperimentRegistry.table3
    val expected = Seq(
      "== Table 3: data statistics ==",
      "dataset  tuples(repro)  matches  attrs  tuples(paper)          matches(paper)  attrs(paper)",
      "-------  -------------  -------  -----  ---------------------  --------------  ------------",
      "Prod-WA  800 - 2000     500      17     2,554 - 22,074         1,154           17          ",
      "Prod-AG  600 - 1200     500      5      1,363 - 3,226          1,300           5           ",
      "Pub-DA   800 - 700      600      4      2,616 - 2,294          2,224           4           ",
      "Pub-DS   800 - 2400     700      4      2,616 - 64,263         5,347           4           ",
      "Pub-DC   1500 - 2000    1200     4      1,823,978 - 2,512,927  558,787         4           ",
      "Rest-FZ  300 - 200      110      7      533 - 331              112             7           ",
    ).mkString("\n")
    assert(e.tables(e.measure(spark)).map(_.render) == Seq(expected))
  }
}
