package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.util.concurrent.ConcurrentHashMap
import javax.management.{Notification, NotificationEmitter}
import javax.management.openmbean.CompositeData

import com.sun.management.GarbageCollectionNotificationInfo

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.PerfbenchBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession

/** Spark task metrics summed over the tasks of one job group. */
final class TaskTotals {
  var runMs = 0L
  var shuffleReadBytes = 0L
  var shuffleWriteBytes = 0L
  var shuffleRecords = 0L
}

/** Adds up task time and shuffle traffic per Spark job group. The tracer
  * gives every span its own job group, so each span learns what the
  * Spark jobs it started cost.
  */
final class GroupListener extends SparkListener {
  private val stageGroup = new ConcurrentHashMap[Int, String]()
  private val totals = new ConcurrentHashMap[String, TaskTotals]()

  override def onJobStart(e: SparkListenerJobStart): Unit =
    Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
      .foreach(g => e.stageIds.foreach(s => stageGroup.put(s, g)))

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val g = stageGroup.get(e.stageId)
    val m = e.taskMetrics
    if (g != null && m != null) {
      val t = totals.computeIfAbsent(g, _ => new TaskTotals)
      t.synchronized {
        t.runMs += m.executorRunTime
        t.shuffleReadBytes += m.shuffleReadMetrics.totalBytesRead
        t.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
        t.shuffleRecords += m.shuffleWriteMetrics.recordsWritten
      }
    }
  }

  def of(group: String): TaskTotals = Option(totals.get(group)).getOrElse(new TaskTotals)
}

/** One closed span: a call into a layer, with the process resources it
  * used. `parent` is -1 for a top-level span.
  */
final case class Span(
    id: Int, name: String, parent: Int,
    startNs: Long, endNs: Long,
    cpuNs: Long, gcMs: Long, allocBytes: Long,
    counters: Map[String, Double],
) {
  def layer: String = name.takeWhile(_ != '.')
  def seconds: Double = (endNs - startNs) / 1e9
}

object Probes {
  private val os = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq

  def processCpuNs: Long = os.getProcessCpuTime
  def gcMs: Long = gcs.map(_.getCollectionTime).sum
  def threadAllocBytes: Long = threads.getCurrentThreadAllocatedBytes

  /** (steal, total) jiffies of all CPUs from /proc/stat: time the
    * hypervisor gave this machine's CPUs to someone else.
    */
  def stealJiffies: (Long, Long) =
    try {
      val src = scala.io.Source.fromFile("/proc/stat")
      val f = try src.getLines().next().trim.split("\\s+").drop(1).map(_.toLong) finally src.close()
      (if (f.length > 7) f(7) else 0L, f.take(8).sum)
    } catch { case _: Exception => (0L, 0L) }
}

/** Peak heap in use after a garbage collection: the memory the workload
  * really retains, without the garbage that the collector's sizing
  * decisions happen to leave in the young generation. Every collection
  * during the timed region counts, plus a full collection at its end.
  */
object HeapWatch {
  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == MemoryType.HEAP).map(_.getName).toSet
  @volatile private var peak = 0L

  ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach {
    case e: NotificationEmitter =>
      e.addNotificationListener((n: Notification, _: AnyRef) =>
        if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
          val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
          val used = info.getGcInfo.getMemoryUsageAfterGc.asScala
            .collect { case (pool, u) if heapPools(pool) => u.getUsed }.sum
          synchronized { peak = math.max(peak, used) }
        }, null, null)
    case _ => ()
  }

  def reset(): Unit = synchronized { peak = 0L }

  /** Collects, then returns the peak since [[reset]] in MB. */
  def peakMb(): Double = {
    System.gc()
    val now = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
    val p: Long = synchronized(math.max(peak, now))
    p / 1e6
  }
}

/** Records one span per layer call, in memory, on the driver thread.
  * A span sets its own Spark job group for its duration so that the
  * [[GroupListener]] attributes task metrics to the innermost span.
  */
final class Tracer(spark: SparkSession, listener: GroupListener) {
  private final class Open(val id: Int, val name: String, val parent: Int) {
    val startNs: Long = System.nanoTime()
    val cpu0: Long = Probes.processCpuNs
    val gc0: Long = Probes.gcMs
    val alloc0: Long = Probes.threadAllocBytes
    val counters = mutable.LinkedHashMap[String, Double]()
  }

  private val closed = mutable.ArrayBuffer[Span]()
  private var stack: List[Open] = Nil
  private var nextId = 0

  def apply[T](name: String)(body: => T): T = {
    val o = new Open(nextId, name, stack.headOption.fold(-1)(_.id))
    nextId += 1
    stack = o :: stack
    spark.sparkContext.setJobGroup(o.id.toString, name, interruptOnCancel = false)
    try body
    finally {
      val end = System.nanoTime()
      closed += Span(o.id, o.name, o.parent, o.startNs, end,
        Probes.processCpuNs - o.cpu0, Probes.gcMs - o.gc0, Probes.threadAllocBytes - o.alloc0,
        o.counters.toMap)
      stack = stack.tail
      stack.headOption match {
        case Some(p) => spark.sparkContext.setJobGroup(p.id.toString, p.name, interruptOnCancel = false)
        case None    => spark.sparkContext.clearJobGroup()
      }
    }
  }

  /** Adds `v` to counter `key` of the innermost open span. */
  def count(key: String, v: Double): Unit = {
    val o = stack.head
    o.counters(key) = o.counters.getOrElse(key, 0.0) + v
  }

  def spans: Seq[Span] = closed.toSeq

  /** Waits for Spark's pending task events, then returns each span's
    * Spark totals keyed by span id.
    */
  def sparkTotals(): Map[Int, TaskTotals] = {
    PerfbenchBus.drain(spark.sparkContext)
    closed.map(s => s.id -> listener.of(s.id.toString)).toMap
  }
}

/** Turns the spans of one traced iteration into named per-layer metrics. */
object LayerReport {
  val layers: Seq[String] = Seq("data", "embedding", "core", "nn", "lsh")

  /** Metrics of one iteration that lasted `wallS` seconds. */
  def of(spans: Seq[Span], spark: Map[Int, TaskTotals], wallS: Double, nproc: Int): Map[String, Double] = {
    val children = spans.groupBy(_.parent)
    def kids(s: Span) = children.getOrElse(s.id, Nil)
    def selfS(s: Span) = s.seconds - kids(s).map(_.seconds).sum
    def selfCpuNs(s: Span) = s.cpuNs - kids(s).map(_.cpuNs).sum
    def selfGcMs(s: Span) = s.gcMs - kids(s).map(_.gcMs).sum

    val out = mutable.LinkedHashMap[String, Double]()
    // Time per call site (summed over calls), plus the counters each
    // site recorded.
    spans.groupBy(_.name).foreach { case (name, ss) =>
      out(s"$name.total_s") = ss.map(_.seconds).sum
      out(s"$name.self_s") = ss.map(selfS).sum
      out(s"$name.alloc_bytes") = ss.map(_.allocBytes).sum.toDouble
      ss.flatMap(_.counters).groupBy(_._1).foreach { case (k, kvs) => out(k) = kvs.map(_._2).sum }
    }
    layers.foreach { l =>
      val ss = spans.filter(_.layer == l)
      val self = ss.map(selfS).sum
      val tot = ss.map(s => spark.getOrElse(s.id, new TaskTotals))
      out(s"$l.self_s") = self
      out(s"$l.task_s") = tot.map(_.runMs).sum / 1e3
      out(s"$l.shuffle_read_mb") = tot.map(_.shuffleReadBytes).sum / 1e6
      out(s"$l.shuffle_write_mb") = tot.map(_.shuffleWriteBytes).sum / 1e6
      out(s"$l.shuffle_records") = tot.map(_.shuffleRecords).sum.toDouble
      out(s"$l.gc_s") = ss.map(selfGcMs).sum / 1e3
      out(s"$l.cpu_util") = if (self > 0) ss.map(selfCpuNs).sum / 1e9 / (self * nproc) else 0.0
    }
    out("trace.coverage") = spans.filter(_.parent < 0).map(_.seconds).sum / wallS
    out("trace.spans") = spans.size.toDouble
    out.toMap
  }
}
