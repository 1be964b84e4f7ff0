package repro.bench

import repro.exp.{ExperimentChecks, ExperimentRegistry}

/** The bench: one test per [[ExperimentRegistry]] entry, named by the
  * entry's name. Each measures its entry, checks the paper's shape claims,
  * prints the aligned `measured vs paper` tables exactly as `repro.jobs.Run`
  * does, and asserts that the text equals `bench/golden/<name>.txt`
  * (`bench/README.md` says how to re-record one). EXPERIMENTS.md records
  * the same numbers with commentary. Run with `sbt "bench/test"`.
  */
class ExperimentBench extends ExperimentChecks {
  ExperimentRegistry.all.foreach(e => test(e.name)(checkExperiment(e)(print)))
}
