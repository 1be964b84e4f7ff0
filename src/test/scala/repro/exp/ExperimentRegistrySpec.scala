package repro.exp

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

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

  /** The recorded texts that the bench suites assert, one file per registry entry. */
  private val goldenDir = Paths.get("bench", "golden")

  test("every registry entry has a golden file, and every golden file an entry") {
    assert(goldenDir.toFile.list().toSeq.sorted == ExperimentRegistry.all.map(_.name + ".txt").sorted)
  }

  /** Runs an entry's harness and compares its text with the entry's golden file. */
  private def assertGolden[R](e: Experiment[R]): Unit = {
    val golden = new String(Files.readAllBytes(goldenDir.resolve(e.name + ".txt")), StandardCharsets.UTF_8)
    assert(e.text(e.measure(spark)) == golden)
  }

  test("table3 renders the Table 3 block of the bench output byte for byte") {
    assertGolden(ExperimentRegistry.table3)
  }

  // Table 4 and the nucleotide run fit the Magellan-like random forest, Table 5
  // retrofits the small dictionary, and the nucleotide run trains GloVe on the
  // generated k-mers: the only entries that reach RandomForest, Retrofit,
  // GloveTrainer and Nucleotide.generate. Table 7 and Figures 6 and 7 train
  // the head with other dictionaries, data, training sizes and labels.
  test("table4 renders the Table 4 block of the bench output byte for byte") {
    assertGolden(ExperimentRegistry.table4)
  }

  test("table5 renders the Table 5 block of the bench output byte for byte") {
    assertGolden(ExperimentRegistry.table5)
  }

  test("table7 renders the Table 7 block of the bench output byte for byte") {
    assertGolden(ExperimentRegistry.table7)
  }

  test("fig6 renders the Figure 6 block of the bench output byte for byte") {
    assertGolden(ExperimentRegistry.fig6)
  }

  test("fig7 renders the Figure 7 block of the bench output byte for byte") {
    assertGolden(ExperimentRegistry.fig7)
  }

  test("nucleotide renders the nucleotide block of the bench output byte for byte") {
    assertGolden(ExperimentRegistry.nucleotide)
  }

  // The Figure-5 network's numbers: Figure 8 trains averaging with frozen and
  // tuned embeddings, Figure 9 all three compositions. Neither depends on the
  // core count.
  test("fig8 renders the Figure 8 block of the bench output byte for byte") {
    assertGolden(ExperimentRegistry.fig8)
  }

  test("fig9 renders the Figure 9 block of the bench output byte for byte") {
    assertGolden(ExperimentRegistry.fig9)
  }

  // Table 6 runs the Table-4 preparation (driver-side DRs, the three collects
  // at once) and fold-parallel CV of the Figure-5 head on all six datasets.
  test("table6 renders the Table 6 block of the bench output byte for byte") {
    assertGolden(ExperimentRegistry.table6)
  }

  // Figures 10 and 12 run `sweep` and `multiProbe` on `prepareBlocks`'
  // lazily filled DR caches; neither depends on the core count.
  test("fig10 renders the Figure 10 block of the bench output byte for byte") {
    assertGolden(ExperimentRegistry.fig10)
  }

  test("fig12 renders the Figure 12 block of the bench output byte for byte") {
    assertGolden(ExperimentRegistry.fig12)
  }

  // Figure 11 trains its head on a blocked-negative sample drawn from the
  // collect order of `candidatePairs`' `distinct()`. That order follows the
  // hash partitions, and so the core count; fig11.txt was recorded on 4
  // cores (bench/README.md).
  test("fig11 renders the Figure 11 block of the bench output byte for byte (on 4 cores)") {
    val cores = spark.sparkContext.defaultParallelism
    assume(cores == 4, s"fig11.txt was recorded on 4 cores and this session has $cores: the blocked-negative " +
      "sample follows the collect order of candidatePairs' distinct(), whose partitions follow the core count")
    assertGolden(ExperimentRegistry.fig11)
  }

  test("table3's paper statistics cover exactly the six benchmark datasets") {
    assert(ExperimentRegistry.table3Paper.keySet ==
      Set("Prod-WA", "Prod-AG", "Pub-DA", "Pub-DS", "Pub-DC", "Rest-FZ"))
  }
}
