package repro.jobs

import repro.SparkSessions
import repro.exp.{Experiment, ExperimentRegistry}

/** The spark-submit entrypoint. It runs one experiment of
  * [[repro.exp.ExperimentRegistry]], named by its only argument, and prints
  * its text, the tables that `bench/golden/<name>.txt` records:
  * {{{
  * spark-submit --class repro.jobs.Run target/scala-2.13/repro_2.13-0.1.0-SNAPSHOT.jar table4
  * }}}
  * Arguments that name no experiment print the usage line to stderr, and
  * the JVM exits with status 2.
  */
object Run {
  val usage: String =
    s"usage: repro.jobs.Run <experiment>, one of: ${ExperimentRegistry.all.map(_.name).mkString(", ")}"

  /** The experiment `args` names, or the message to print if they name none. */
  def experiment(args: Seq[String]): Either[String, Experiment[_]] = args match {
    case Seq(name) => ExperimentRegistry.all.find(_.name == name).toRight(s"unknown experiment '$name'; $usage")
    case _ => Left(usage)
  }

  def main(args: Array[String]): Unit = experiment(args.toSeq) match {
    case Left(message) =>
      Console.err.println(message)
      sys.exit(2)
    case Right(e: Experiment[r]) =>
      val spark = SparkSessions.getOrCreate(e.name)
      try print(e.text(e.measure(spark)))
      finally spark.stop()
  }
}
