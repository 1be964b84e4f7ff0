package repro.perfbench

import scala.util.control.NonFatal

import org.apache.spark.sql.SparkSession

import repro.exp.Dicts

/** Benchmark entry point: one workload, one JVM, one job at a time (a closed
  * loop with a single client) on Spark `local[nproc]`.
  *
  * A run sets up several times (SparkSession start, dataset generation,
  * dictionary build) and reports the median of the warm repetitions as
  * `setup_s`. It then runs the workload once, untimed, to warm the JIT,
  * and repeats it until `--seconds` have passed (at least [[MinIters]]
  * times), reporting medians. With `--trace 1` it alternates untraced and
  * traced iterations and reports per-layer metrics of the traced ones.
  *
  * The last stdout line is the JSON result, prefixed with `RESULT `.
  */
object Main {
  val SetupReps = 3
  val MinIters = 2
  val DefaultSeed = 7L

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
      profile: String, localDir: String)

  def parse(args: Array[String]): Args = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => sys.error(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    Args(kv("workload"), kv.getOrElse("seed", DefaultSeed.toString).toLong,
      kv.getOrElse("seconds", "10").toDouble, kv.getOrElse("trace", "0") == "1",
      kv.getOrElse("profile", "bench"), kv.getOrElse("local-dir", ".bench_build/spark-local"))
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def session(nproc: Int, localDir: String): SparkSession =
    SparkSession.builder
      .master(s"local[$nproc]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.ui.showConsoleProgress", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", localDir)
      .config("spark.sql.warehouse.dir", s"$localDir/warehouse")
      .getOrCreate()

  final case class Iter(wallS: Double, heapMb: Double, outputs: Map[String, Double], layers: Map[String, Double])

  def main(argv: Array[String]): Unit = {
    val a = parse(argv)
    val sizes = a.profile match {
      case "bench" => Workloads.bench
      case "paper" => Workloads.paper
      case p       => sys.error(s"unknown profile $p")
    }
    val wl = Workloads.all(sizes).find(_.name == a.workload)
      .getOrElse(sys.error(s"unknown workload ${a.workload}; one of ${Workloads.all(sizes).map(_.name).mkString(", ")}"))
    val nproc = Runtime.getRuntime.availableProcessors
    println(s"perfbench env: workload=${wl.name} seed=${a.seed} profile=${a.profile} trace=${if (a.trace) 1 else 0} " +
      s"nproc=$nproc master=local[$nproc] shuffle.partitions=64 broadcastJoins=off " +
      s"maxHeapMb=${Runtime.getRuntime.maxMemory / (1 << 20)} jdk=${System.getProperty("java.version")}")

    // ---- set-up, repeated; the first repetition is cold ----------------
    var spark: SparkSession = null
    var in: Inputs = null
    val setups = (1 to SetupReps).map { _ =>
      if (spark != null) spark.stop()
      val t0 = System.nanoTime()
      spark = session(nproc, a.localDir)
      val t1 = System.nanoTime()
      val ds = wl.dataset(spark)
      val t2 = System.nanoTime()
      val dict = Dicts.gloveLike(ds.forms)
      val t3 = System.nanoTime()
      in = Inputs(ds, dict)
      ((t3 - t0) / 1e9, (t2 - t1) / 1e9, (t3 - t2) / 1e9)
    }
    println(f"setup: cold ${setups.head._1}%.3f s, warm ${setups.tail.map(_._1).map(x => f"$x%.3f").mkString(" ")} s")
    val listener = new GroupListener
    spark.sparkContext.addSparkListener(listener)

    // ---- timed iterations ----------------------------------------------
    var attempted = 0
    var threw = 0
    val failures = scala.collection.mutable.ArrayBuffer[String]()
    def iterate(traced: Boolean): Option[Iter] = {
      attempted += 1
      System.gc()
      HeapWatch.reset()
      val tracer = if (traced) new Tracer(spark, listener) else null
      try {
        val gc0 = Probes.gcMs
        val cpu0 = Probes.processCpuNs
        val steal0 = Probes.stealJiffies
        val t0 = System.nanoTime()
        val out = if (traced) wl.traced(spark, in, a.seed, tracer) else wl.run(spark, in, a.seed)
        val wall = (System.nanoTime() - t0) / 1e9
        val heap = HeapWatch.peakMb()
        val gcS = (Probes.gcMs - gc0) / 1e3
        val cpuUtil = (Probes.processCpuNs - cpu0) / 1e9 / (wall * nproc)
        val steal1 = Probes.stealJiffies
        val steal = (steal1._1 - steal0._1).toDouble / math.max(1L, steal1._2 - steal0._2)
        out.release()
        val layers = if (traced) LayerReport.of(tracer.spans, tracer.sparkTotals(), wall, nproc) else Map.empty[String, Double]
        println(f"  ${if (traced) "traced  " else "untraced"} wall ${wall}%.3f s gc ${gcS}%.3f s cpu ${cpuUtil}%.2f steal ${steal}%.2f heap ${heap}%.0f MB " +
          out.outputs.toSeq.sorted.map { case (k, v) => s"$k=$v" }.mkString(" "))
        Some(Iter(wall, heap, out.outputs, layers))
      } catch {
        case NonFatal(e) =>
          threw += 1
          failures += s"iteration threw: $e"
          e.printStackTrace()
          None
      }
    }

    // The first iteration runs with a cold JIT, 1.5-2x slower than the
    // next ones; it is not timed.
    val warm = iterate(traced = false)
    val start = System.nanoTime()
    val untraced = scala.collection.mutable.ArrayBuffer[Iter]()
    val traced = scala.collection.mutable.ArrayBuffer[Iter]()
    while ((System.nanoTime() - start) / 1e9 < a.seconds || untraced.size + traced.size < MinIters) {
      iterate(traced = false).foreach(untraced += _)
      if (a.trace) iterate(traced = true).foreach(traced += _)
    }
    spark.stop()

    // ---- output checks -------------------------------------------------
    // Every iteration must reproduce the first untraced one (the traced
    // rebuild included), hold the shape bounds, and at the default seed
    // equal the reference; a traced one must also be covered by spans.
    val reference = References.of(a.profile, wl.name, a.seed)
    val baseline = (warm.toSeq ++ untraced).headOption
    def errors(it: Iter, traced: Boolean): Seq[String] =
      reference.fold(Seq.empty[String])(References.mismatches(a.profile, _, it.outputs)) ++
        wl.shapeErrors(it.outputs) ++
        baseline.filter(_.outputs != it.outputs).map(b => s"outputs ${it.outputs} differ from untraced ${b.outputs}") ++
        Seq(it.layers.getOrElse("trace.coverage", 1.0)).filter(c => traced && c < 0.95)
          .map(c => f"span self times cover $c%.3f of traced wall_s (< 0.95)")
    val plain = warm.toSeq ++ untraced
    plain.foreach(it => errors(it, traced = false).foreach(e => failures += s"untraced: $e"))
    traced.foreach(it => errors(it, traced = true).foreach(e => failures += s"traced: $e"))
    val failedRuns = threw + plain.count(errors(_, traced = false).nonEmpty) +
      traced.count(errors(_, traced = true).nonEmpty)
    failures.foreach(f => println(s"FAILED $f"))

    // ---- metrics -------------------------------------------------------
    val main = if (untraced.nonEmpty) untraced.toSeq else warm.toSeq
    // resolve-lsh: F1 of the end-to-end result at the last (K, L).
    def f1Pct(o: Map[String, Double]): Double = o.get("f1").getOrElse {
      val cn = PerLayer.cfgs.last
      val p = o(s"precision.$cn"); val r = o(s"recall.$cn")
      if (p + r == 0) 0.0 else 200.0 * p * r / (p + r)
    }
    val metrics: Seq[(String, Double, String)] =
      if (!a.trace) Seq(
        ("wall_s", median(main.map(_.wallS)), "s"),
        ("setup_s", median(setups.tail.map(_._1)), "s"),
        ("heap_peak_mb", median(main.map(_.heapMb)), "MB"),
        ("f1_pct", median(main.map(it => f1Pct(it.outputs))), "%"),
      )
      else {
        val setupLayers = Map(
          "data.generate_s" -> median(setups.tail.map(_._2)),
          "embedding.dict_build_s" -> median(setups.tail.map(_._3)))
        val perIter = traced.toSeq.map(it => PerLayer.derive(it.layers ++ it.outputs.map { case (k, v) => s"out.$k" -> v }))
        val tracedWall = median(traced.toSeq.map(_.wallS))
        val untracedWall = median(main.map(_.wallS))
        PerLayer.metrics.map { case (n, unit) =>
          val v = n match {
            case "trace.wall_s"          => tracedWall
            case "trace.untraced_wall_s" => untracedWall
            case "trace.overhead_s"      => tracedWall - untracedWall
            case _ if setupLayers.contains(n) => setupLayers(n)
            case _                       => median(perIter.map(_.getOrElse(n, 0.0)))
          }
          (n, v, unit)
        }
      }
    val correct = failures.isEmpty && main.nonEmpty && (!a.trace || traced.nonEmpty)
    val json = metrics.map { case (n, v, u) =>
      val num = if (v.isNaN || v.isInfinite) "null" else v.toString
      s""""$n": {"value": $num, "unit": "$u"}"""
    }.mkString("{", ", ", "}")
    println(s"""RESULT {"correct": $correct, "attempted": $attempted, "failed": $failedRuns, "metrics": $json}""")
    sys.exit(if (correct) 0 else 1)
  }
}

/** Per-layer metric names, units, and how each comes from the raw
  * numbers of one traced iteration (see [[LayerReport]]).
  */
object PerLayer {
  /** Blocking configs with per-layer metrics: the timed ones. */
  val cfgs: Seq[String] = Workloads.bench.lshConfigs.map { case (k, l) => Workloads.cfgName(k, l) }

  val metrics: Seq[(String, String)] =
    Seq(
      "data.generate_s" -> "s", "embedding.dict_build_s" -> "s",
      "core.embed_s" -> "s", "core.tuples_per_s" -> "1/s",
      "core.sample_s" -> "s", "core.pairs_sampled" -> "count", "core.features_s" -> "s",
      "core.cv_s" -> "s", "core.cv_self_s" -> "s",
      "core.vocab_s" -> "s", "core.token_index_s" -> "s",
      "nn.fit_s" -> "s", "nn.net_fit_s" -> "s", "nn.example_steps" -> "count",
      "nn.ns_per_example_step" -> "ns", "nn.alloc_bytes_per_example_step" -> "bytes",
    ) ++ cfgs.flatMap(c => Seq(
      s"lsh.candidates_s.$c" -> "s", s"lsh.candidates.$c" -> "count", s"lsh.join_rows.$c" -> "count",
      s"lsh.dedup_yield.$c" -> "ratio", s"lsh.max_bucket.$c" -> "count",
      s"lsh.score_s.$c" -> "s", s"lsh.scored_pairs_per_s.$c" -> "1/s",
      s"lsh.precision_pct.$c" -> "%", s"lsh.recall_pct.$c" -> "%",
    )) ++ Seq(
      "lsh.train_cands_s" -> "s", "lsh.train_negatives" -> "count",
      "lsh.probe_s" -> "s", "lsh.probe_rows" -> "count", "lsh.probe_join_rows" -> "count",
      "lsh.probe_recall_pct" -> "%",
    ) ++ LayerReport.layers.flatMap(l => Seq(
      s"$l.self_s" -> "s", s"$l.task_s" -> "s", s"$l.shuffle_read_mb" -> "MB", s"$l.shuffle_write_mb" -> "MB",
      s"$l.shuffle_records" -> "count", s"$l.gc_s" -> "s", s"$l.cpu_util" -> "ratio",
    )) ++ Seq(
      "trace.wall_s" -> "s", "trace.untraced_wall_s" -> "s", "trace.overhead_s" -> "s",
      "trace.coverage" -> "ratio", "trace.spans" -> "count",
    )

  /** Named per-layer metrics of one traced iteration; absent work is 0. */
  def derive(raw: Map[String, Double]): Map[String, Double] = {
    def g(k: String) = raw.getOrElse(k, 0.0)
    def ratio(n: Double, d: Double) = if (d > 0) n / d else 0.0
    val steps = g("nn.example_steps")
    val base = Map(
      "core.embed_s" -> g("core.embed.total_s"),
      "core.tuples_per_s" -> ratio(g("core.tuples"), g("core.embed.total_s")),
      "core.sample_s" -> g("core.sample.total_s"),
      "core.pairs_sampled" -> g("core.pairs_sampled"),
      "core.features_s" -> g("core.features.total_s"),
      "core.cv_s" -> g("core.cv.total_s"),
      "core.cv_self_s" -> g("core.cv.self_s"),
      "core.vocab_s" -> g("core.vocab.total_s"),
      "core.token_index_s" -> g("core.token_index.total_s"),
      "nn.fit_s" -> g("nn.fit.total_s"),
      "nn.net_fit_s" -> g("nn.net_fit.total_s"),
      "nn.example_steps" -> steps,
      "nn.ns_per_example_step" -> ratio((g("nn.fit.total_s") + g("nn.net_fit.total_s")) * 1e9, steps),
      "nn.alloc_bytes_per_example_step" -> ratio(g("nn.fit.alloc_bytes") + g("nn.net_fit.alloc_bytes"), steps),
      "lsh.train_cands_s" -> g("lsh.train_cands.total_s"),
      "lsh.train_negatives" -> g("lsh.train_negatives"),
      "lsh.probe_s" -> g("lsh.probe.total_s"),
      "lsh.probe_rows" -> g("lsh.probe_rows"),
      "lsh.probe_join_rows" -> g("lsh.probe_join_rows"),
      "lsh.probe_recall_pct" -> 100 * g("out.probe_recall"),
    )
    val perCfg = cfgs.flatMap { c =>
      val cands = g(s"lsh.candidates.$c")
      Seq(
        s"lsh.candidates_s.$c" -> g(s"lsh.candidates.$c.total_s"),
        s"lsh.candidates.$c" -> cands,
        s"lsh.join_rows.$c" -> g(s"lsh.join_rows.$c"),
        s"lsh.dedup_yield.$c" -> ratio(cands, g(s"lsh.join_rows.$c")),
        s"lsh.max_bucket.$c" -> g(s"lsh.max_bucket.$c"),
        s"lsh.score_s.$c" -> g(s"lsh.score.$c.total_s"),
        s"lsh.scored_pairs_per_s.$c" -> ratio(cands, g(s"lsh.score.$c.total_s")),
        s"lsh.precision_pct.$c" -> 100 * g(s"out.precision.$c"),
        s"lsh.recall_pct.$c" -> 100 * g(s"out.recall.$c"),
      )
    }
    raw ++ base ++ perCfg
  }
}
