package repro.nn

import java.util.concurrent.{Callable, CountDownLatch, Executors, TimeUnit}
import org.scalatest.funsuite.AnyFunSuite

/** The fused [[MLPClassifier]] must train and score exactly like the
  * layer-by-layer [[ReferenceMLP]]: equal doubles, not merely close ones.
  */
class MLPClassifierSpec extends AnyFunSuite {

  /** Features in [-1, 1] (cosines), labels from a noisy linear rule. */
  private def data(n: Int, inDim: Int, seed: Long): (IndexedSeq[Array[Double]], IndexedSeq[Double]) = {
    val rng = new scala.util.Random(seed)
    val xs = IndexedSeq.fill(n)(Array.fill(inDim)(rng.nextDouble() * 2 - 1))
    val ys = xs.map(x => if (x.sum + rng.nextGaussian() * 0.3 > 0) 1.0 else 0.0)
    (xs, ys)
  }

  for {
    inDim <- Seq(1, 4, 17)
    hidden <- Seq(1, 7, 50, 53) // 7 and 53 leave tails after the vector loops' full lanes
    batchSize <- Seq(16, 10) // n = 48: 16 divides it, 10 leaves a batch of 8
    l2 <- Seq(0.0, 1e-3)
  } test(s"fit and predictProb equal the Dense reference (inDim=$inDim hidden=$hidden batch=$batchSize l2=$l2)") {
    val (xs, ys) = data(48, inDim, seed = inDim * 100 + hidden)
    val fused = new MLPClassifier(inDim, hidden, seed = 3)
    val ref = new ReferenceMLP(inDim, hidden, seed = 3)
    val fusedLoss = fused.fit(xs, ys, epochs = 6, batchSize = batchSize, l2 = l2, seed = 11)
    val refLoss = ref.fit(xs, ys, epochs = 6, batchSize = batchSize, l2 = l2, seed = 11)
    assert(fusedLoss == refLoss)
    val (probe, _) = data(64, inDim, seed = 99)
    (xs ++ probe).foreach(x => assert(fused.predictProb(x) == ref.predictProb(x)))
  }

  test("accumulate's dL/dx equals the Dense reference's input gradient") {
    for (inDim <- Seq(1, 4, 17)) {
      val (xs, ys) = data(48, inDim, seed = inDim)
      val fused = new MLPClassifier(inDim, 50, seed = 4)
      val ref = new ReferenceMLP(inDim, 50, seed = 4)
      fused.fit(xs, ys, epochs = 2, seed = 5)
      ref.fit(xs, ys, epochs = 2, seed = 5)
      val g = fused.grads(new Adam())
      val dx = Array.fill(inDim)(Double.NaN) // overwritten, not added to
      for ((x, y) <- xs.zip(ys)) {
        fused.accumulate(x, y, g, dx)
        assert(dx.toSeq == ref.inputGrad(x, y).toSeq, s"inDim=$inDim")
      }
    }
  }

  test("the index shuffle draws the same permutation as Random.shuffle") {
    for (n <- Seq(0, 1, 2, 17, 10560); seed <- Seq(0L, 1L, 7L, 42L, -5L)) {
      val rng = new scala.util.Random(seed)
      val expected = new scala.util.Random(seed)
      val order = new Array[Int](n)
      // Successive epochs share one generator, so compare three in a row.
      (1 to 3).foreach { _ =>
        MLPClassifier.shuffledIndices(rng, order)
        assert(order.toSeq == expected.shuffle((0 until n).toIndexedSeq), s"n=$n seed=$seed")
      }
    }
    // Figure 11's blocked-negative draw at its Prod-AG size: shuffling the
    // indices and then indexing equals shuffling the elements.
    val n = 385486
    val xs = Vector.tabulate(n)(i => (i.toLong * 7, i.toLong * 13))
    val order = new Array[Int](n)
    MLPClassifier.shuffledIndices(new scala.util.Random(7), order)
    assert(order.iterator.map(xs).toSeq == new scala.util.Random(7).shuffle(xs))
  }

  test("predictProb is re-entrant: four threads on one instance agree with one thread") {
    val (xs, ys) = data(200, 4, seed = 5)
    val mlp = new MLPClassifier(4, 50, seed = 6)
    mlp.fit(xs, ys, epochs = 3, seed = 7)
    val (probe, _) = data(20000, 4, seed = 8)
    val expected = probe.map(mlp.predictProb)
    val pool = Executors.newFixedThreadPool(4)
    try {
      val start = new CountDownLatch(1)
      val futures = (1 to 4).map { _ =>
        pool.submit(new Callable[IndexedSeq[Double]] {
          def call(): IndexedSeq[Double] = { start.await(); probe.map(mlp.predictProb) }
        })
      }
      start.countDown()
      futures.foreach(f => assert(f.get(60, TimeUnit.SECONDS) == expected))
    } finally pool.shutdownNow()
  }

  test("fit rejects feature vectors of the wrong width") {
    val mlp = new MLPClassifier(3, 4)
    intercept[IllegalArgumentException](mlp.fit(IndexedSeq(Array(1.0, 2.0)), IndexedSeq(1.0)))
    intercept[IllegalArgumentException](mlp.predictProb(Array(1.0)))
  }
}
