package repro.nn

/** The Figure-5 head written layer by layer with [[Dense]], as
  * [[MLPClassifier]] was before its training loop was fused (and as
  * [[DeepERNet]]'s head was before it shared [[MLPClassifier]]). Kept as
  * the reference the fused kernel must reproduce bit for bit.
  */
final class ReferenceMLP(val inDim: Int, val hidden: Int = 50, seed: Long = 42) {
  private val dense1 = new DenseParams(inDim, hidden, Tanh, seed)
  private val dense2 = new DenseParams(hidden, 1, Identity, seed + 1)
  private val d1G = dense1.zeroGrads
  private val d2G = dense2.zeroGrads

  def predictProb(x: Array[Double]): Double = {
    val t1 = Dense.forward(dense1, x)
    val t2 = Dense.forward(dense2, t1.y)
    Linalg.sigmoid(t2.y(0))
  }

  /** dL/dx of the BCE loss of one example, from the layers' backward passes. */
  def inputGrad(x: Array[Double], y: Double): Array[Double] = {
    val t1 = Dense.forward(dense1, x)
    val t2 = Dense.forward(dense2, t1.y)
    val p = Linalg.sigmoid(t2.y(0))
    val dH = Dense.backward(dense2, t2, Array(p - y), dense2.zeroGrads)
    Dense.backward(dense1, t1, dH, dense1.zeroGrads)
  }

  def fit(
      xs: IndexedSeq[Array[Double]],
      ys: IndexedSeq[Double],
      epochs: Int = 20,
      batchSize: Int = 16,
      lr: Double = 0.01,
      l2: Double = 1e-3,
      seed: Long = 7,
  ): Seq[Double] = {
    require(xs.length == ys.length)
    val opt = new Adam(lr)
    opt.registerAll(dense1.parameters, d1G.gradients)
    opt.registerAll(dense2.parameters, d2G.gradients)
    val rng = new scala.util.Random(seed)
    (1 to epochs).map { _ =>
      val order = rng.shuffle(xs.indices.toIndexedSeq)
      var total = 0.0
      order.grouped(batchSize).foreach { batch =>
        batch.foreach { i =>
          val t1 = Dense.forward(dense1, xs(i))
          val t2 = Dense.forward(dense2, t1.y)
          val p = Linalg.sigmoid(t2.y(0))
          total += -(ys(i) * math.log(math.max(p, 1e-12)) +
            (1 - ys(i)) * math.log(math.max(1 - p, 1e-12)))
          val dH = Dense.backward(dense2, t2, Array(p - ys(i)), d2G)
          Dense.backward(dense1, t1, dH, d1G)
        }
        val inv = 1.0 / batch.size
        (d1G.gradients ++ d2G.gradients).foreach(g => (0 until g.length).foreach(i => g(i) *= inv))
        opt.step(l2)
      }
      total / xs.size
    }
  }
}
