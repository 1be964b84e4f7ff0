package repro.exp

import java.nio.file.Paths

import repro.jobs.Run

class ExperimentRegistrySpec extends ExperimentChecks {

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

  test("every registry entry has a golden file, and every golden file an entry") {
    assert(Paths.get("bench", "golden").toFile.list().toSeq.sorted == ExperimentRegistry.all.map(_.name + ".txt").sorted)
  }

  /** "Table 3", "Figure 10" or "nucleotide": how a test name calls the entry's block. */
  private def block(name: String) = name match {
    case s"table$n" => s"Table $n"
    case s"fig$n" => s"Figure $n"
    case other => other
  }

  // Every entry's shape claims hold on any core count, and so does its text, except fig11's: Figure 11's
  // blocked-negative sample follows the collect order of a distinct(), whose partitions follow the core
  // count, and fig11.txt was recorded on 4 cores (bench/README.md).
  ExperimentRegistry.all.foreach { e =>
    test(s"${e.name} renders the ${block(e.name)} block of the bench output byte for byte" +
        (if (e.name == "fig11") " (on 4 cores)" else "")) {
      checkExperiment(e) { _ =>
        val cores = spark.sparkContext.defaultParallelism
        if (e.name == "fig11") assume(cores == 4, s"fig11.txt was recorded on 4 cores and this session has " +
          s"$cores: the blocked-negative sample follows the collect order of candidatePairs' distinct()")
      }
    }
  }
}
