package repro.nn

/** Adam optimizer (Kingma & Ba) over a flat list of parameter/gradient
  * array pairs. The paper trains DeepER with Adam, lr 0.01, batch 16,
  * 20 epochs, L2 regularization 1e-3 (Section 5.1).
  *
  * Parameter groups may carry different learning rates: the paper uses a
  * separate "embeddings update rate" (also 0.01) for end-to-end tuning.
  * The moment decays and ε are Kingma & Ba's defaults.
  */
final class Adam(lr: Double = 0.01) {
  import Adam.{Beta1, Beta2, Eps}

  final case class Slot(param: Array[Double], grad: Array[Double], lrScale: Double, decay: Boolean) {
    val m: Array[Double] = new Array[Double](param.length)
    val v: Array[Double] = new Array[Double](param.length)
  }

  private var slots: List[Slot] = Nil
  private var t: Int = 0

  /** @param decay apply L2 weight decay to this group. Keep `false` for
    *              embedding tables: decaying rows whose tokens never
    *              appear in a batch silently erases their pre-trained
    *              vectors.
    */
  def register(param: Array[Double], grad: Array[Double], lrScale: Double = 1.0, decay: Boolean = true): Unit = {
    require(param.length == grad.length, "param/grad length mismatch")
    slots = Slot(param, grad, lrScale, decay) :: slots
  }

  def registerAll(params: Seq[Array[Double]], grads: Seq[Array[Double]]): Unit = {
    require(params.length == grads.length)
    params.zip(grads).foreach { case (p, g) => register(p, g) }
  }

  /** Apply one update from the accumulated gradients, then zero them.
    * Each gradient is first multiplied by `gradScale` (1/batch turns a
    * batch sum into its mean); `l2` then adds weight decay (applied to
    * the gradient, classic Adam-L2).
    */
  def step(l2: Double = 0.0, gradScale: Double = 1.0): Unit = {
    t += 1
    val bc1 = 1.0 - math.pow(Beta1, t)
    val bc2 = 1.0 - math.pow(Beta2, t)
    var rest = slots // a while loop, not foreach: no closure per step
    while (rest.nonEmpty) {
      val s = rest.head
      rest = rest.tail
      val a = lr * s.lrScale
      val wd = if (s.decay) l2 else 0.0
      var i = 0
      while (i < s.param.length) {
        val g = s.grad(i) * gradScale + wd * s.param(i)
        s.m(i) = Beta1 * s.m(i) + (1 - Beta1) * g
        s.v(i) = Beta2 * s.v(i) + (1 - Beta2) * g * g
        s.param(i) -= a * (s.m(i) / bc1) / (math.sqrt(s.v(i) / bc2) + Eps)
        s.grad(i) = 0.0
        i += 1
      }
    }
  }
}

object Adam {
  private final val Beta1 = 0.9
  private final val Beta2 = 0.999
  private final val Eps = 1e-8
}
