package repro.bench

import repro.SparkSpec
import repro.exp.{Experiment, ExperimentRegistry}

/** Benchmark suites: one per evaluation table/figure of the paper. Each
  * runs its [[ExperimentRegistry]] entry, prints the aligned
  * `measured vs paper` tables exactly as `repro.jobs.Run` does, asserts
  * that text equals the recorded `bench/golden/<name>.txt` (README.md in
  * `bench/` says how to re-record one), and checks the paper's shape
  * claims on the measured result. EXPERIMENTS.md records the same numbers
  * with commentary. Run with `sbt "bench/test"`.
  */
trait GoldenBench extends SparkSpec {

  /** Measure `e`, print its text, assert it equals the golden file, and
    * return the measurement.
    */
  def report[R](e: Experiment[R]): R = {
    val r = e.measure(spark)
    val text = e.text(r)
    print(text)
    val golden = Option(getClass.getResourceAsStream(s"/${e.name}.txt"))
      .map(in => try new String(in.readAllBytes(), "UTF-8") finally in.close())
      .getOrElse(fail(s"no bench/golden/${e.name}.txt"))
    assert(text == golden, s"${e.name}: the printed text differs from bench/golden/${e.name}.txt")
    r
  }
}

class Table3DataStatsBench extends GoldenBench {
  test("Table 3: dataset statistics (repro scale vs paper)") {
    val rows = report(ExperimentRegistry.table3)
    assert(rows.size == 6)
    // Attribute counts must match the paper exactly.
    rows.foreach(r => assert(r(3) == r(6), s"${r.head}: attr count ${r(3)} != paper ${r(6)}"))
  }
}

class Table4ComparisonBench extends GoldenBench {
  test("Table 4: DeepER vs Magellan-like baseline (F1 %, 5-fold CV, 1:100 sampling)") {
    val rows = report(ExperimentRegistry.table4)
    val get = rows.map(r => r.head -> (r(1).toDouble, r(2).toDouble)).toMap
    // Shape claims: DeepER ahead on the challenging product datasets,
    // both systems strong on the easy ones, Rest-FZ near-perfect.
    assert(get("Prod-AG")._2 > get("Prod-AG")._1, "DeepER must beat Magellan on Prod-AG")
    assert(get("Prod-WA")._2 > get("Prod-WA")._1, "DeepER must beat Magellan on Prod-WA")
    Seq("Pub-DA", "Pub-DS", "Pub-DC").foreach { d =>
      assert(get(d)._2 > 90.0, s"$d DeepER F1 ${get(d)._2} should be > 90")
    }
    assert(get("Rest-FZ")._2 > 95.0)
  }
}

class Table5DictionaryBench extends GoldenBench {
  test("Table 5: impact of embedding dictionary size (GloVe-840B-like vs GloVe-Wiki-like)") {
    val rows = report(ExperimentRegistry.table5)
    // Shape: the small dictionary is strictly worse on every dataset but
    // the trivial Rest-FZ, and retrofitting recovers much of the gap.
    rows.filterNot(_.head == "Rest-FZ").foreach { r =>
      assert(r(1).toDouble >= r(2).toDouble - 0.5, s"${r.head}: big dict ${r(1)} < small ${r(2)}")
    }
    val meanDrop = rows.map(r => r(1).toDouble - r(2).toDouble).sum / rows.size
    assert(meanDrop > 2.0, s"mean drop $meanDrop should be visible")
    val meanRecovery = rows.map(r => r(3).toDouble - r(2).toDouble).sum / rows.size
    assert(meanRecovery > 0.0, s"retrofitting should recover F1 (got $meanRecovery)")
  }
}

class Table6ModelBench extends GoldenBench {
  test("Table 6: impact of embedding model (GloVe / Word2Vec / FastText analogues)") {
    val rows = report(ExperimentRegistry.table6)
    // Shape: only minor variation between models (paper: within ~2 F1).
    rows.foreach { r =>
      val f1s = Seq(r(1), r(2), r(3)).map(_.toDouble)
      assert(f1s.max - f1s.min < 8.0, s"${r.head}: spread ${f1s.max - f1s.min} too large")
    }
  }
}

class Table7MultilingualBench extends GoldenBench {
  test("Table 7: multilingual ER (English vs synthetic-Spanish translation)") {
    val rows = report(ExperimentRegistry.table7)
    rows.foreach { r =>
      val en = r(1).toDouble; val es = r(2).toDouble
      assert(es <= en + 1.0, s"${r.head}: Spanish $es should not beat English $en")
      assert(es > en - 25.0, s"${r.head}: Spanish $es dropped too far below English $en")
    }
  }
}

class TrainingSizeBench extends GoldenBench {
  test("Figure 6: F1 vs training fraction {10,30,50}%") {
    val rows = report(ExperimentRegistry.fig6)
    // Shape: more data never hurts much; 10% already competitive.
    rows.foreach { r =>
      assert(r(3).toDouble >= r(1).toDouble - 5.0, s"${r.head}: 50% ${r(3)} far below 10% ${r(1)}")
    }
  }
}

class LabelNoiseBench extends GoldenBench {
  test("Figure 7: impact of incorrect labels {0,10,30}%") {
    val rows = report(ExperimentRegistry.fig7)
    rows.foreach { r =>
      assert(r(3).toDouble >= r(1).toDouble - 30.0, s"${r.head}: catastrophic noise collapse")
      assert(r(2).toDouble >= r(3).toDouble - 10.0, s"${r.head}: 10% noise should sit near/above 30%")
    }
  }
}

class VectorUpdateBench extends GoldenBench {
  test("Figure 8: static vs fine-tuned word embeddings (end-to-end network)") {
    val rows = report(ExperimentRegistry.fig8)
    // Shape: fine-tuning is near-neutral. (The paper's small positive
    // gains on challenging data cannot reproduce here: the synthetic
    // pre-trained embeddings already encode the ground-truth concepts,
    // so tuning has no task-specific signal left to add — see
    // EXPERIMENTS.md.)
    val get = rows.map(r => r.head -> (r(1).toDouble, r(2).toDouble)).toMap
    get.foreach { case (d, (frozen, tuned)) =>
      assert(tuned >= frozen - 8.0, s"$d: update $tuned collapsed vs frozen $frozen")
    }
  }
}

class CompositionBench extends GoldenBench {
  test("Figure 9: composition method (Average vs Bi-LSTM vs Sentence2Vec-like)") {
    val rows = report(ExperimentRegistry.fig9)
    assert(rows.nonEmpty)
    rows.foreach(r => assert(r(1).toDouble > 40.0, s"${r.head}: averaging collapsed"))
  }
}

class NucleotideBench extends GoldenBench {
  test("Section 5.2: nucleotide duplicate detection with data-learned embeddings") {
    val rows = report(ExperimentRegistry.nucleotide)
    val r = rows.head
    assert(r(1).toDouble > 70.0, s"DeepER nucleotide F1 ${r(1)} too low")
    // Shape: data-learned embeddings beat (or at least match) the
    // hand-crafted feature baseline, as in the paper (87.4 vs 83.9).
    assert(r(1).toDouble >= r(2).toDouble - 0.3,
      s"DeepER ${r(1)} should not trail hand-crafted ${r(2)}")
  }
}

class BlockingSweepBench extends GoldenBench {
  test("Figure 10: PC and RR vs K (L=10) and vs L (K=4)") {
    val (rowsK, rowsL) = report(ExperimentRegistry.fig10)
    // Shape: PC decreases in K, increases in L; RR decreases in K,
    // increases in L (paper Figure 10).
    def col(rows: Seq[Seq[String]], i: Int) = rows.map(_(i).toDouble)
    assert(col(rowsK, 1).head >= col(rowsK, 1).last, "PC must fall as K grows")
    assert(col(rowsK, 5).head >= col(rowsK, 5).last, "RR must fall as K grows")
    assert(col(rowsL, 1).head <= col(rowsL, 1).last, "PC must rise as L grows")
    assert(col(rowsL, 5).head <= col(rowsL, 5).last, "RR must rise as L grows")
    // High-L blocking keeps nearly all duplicates.
    assert(col(rowsL, 1).last > 0.9)
  }
}

class EndToEndBlockingBench extends GoldenBench {
  test("Figure 11: end-to-end precision/recall of blocking + classifier") {
    val (kRows, lRows) = report(ExperimentRegistry.fig11)
    // Shape: recall falls as K grows; recall rises as L grows; the
    // deployment-calibrated classifier keeps usable precision throughout.
    assert(kRows.head._4 >= kRows.last._4, "recall must fall with K")
    assert(lRows.head._4 <= lRows.last._4, "recall must rise with L")
    assert((kRows ++ lRows).forall(_._3 > 0.3), "precision collapsed")
  }
}

class MultiProbeBench extends GoldenBench {
  test("Figure 12: multi-probe LSH recall at L=1, K=10") {
    val rows = report(ExperimentRegistry.fig12)
    // Shape: more probes → higher recall at every top-N.
    val byN = rows.groupBy(_._2)
    byN.values.foreach { g =>
      val sorted = g.sortBy(_._1)
      assert(sorted.head._3 <= sorted.last._3 + 0.02, "recall should rise with MP")
    }
  }
}
