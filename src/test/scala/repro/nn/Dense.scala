package repro.nn

// Dense layers, the building block of ReferenceMLP: the layer-by-layer
// Figure-5 head that MLPClassifier must reproduce bit for bit.

/** Activation functions of the two dense layers. */
sealed trait Activation extends Serializable {
  def f(x: Double): Double
  /** Derivative expressed in terms of the activation *output* y = f(x). */
  def dfFromOut(y: Double): Double
}
case object Tanh extends Activation {
  def f(x: Double): Double = Linalg.tanh(x)
  def dfFromOut(y: Double): Double = 1.0 - y * y
}
case object Identity extends Activation {
  def f(x: Double): Double = x
  def dfFromOut(y: Double): Double = 1.0
}

/** Fully connected layer y = act(W x + b). */
final class DenseParams(val inDim: Int, val outDim: Int, val act: Activation, seed: Long) extends Serializable {
  val W: Mat = Mat.glorot(outDim, inDim, seed)
  val b: Array[Double] = new Array[Double](outDim)
  def zeroGrads: DenseGrads = new DenseGrads(inDim, outDim)
  def parameters: Seq[Array[Double]] = Seq(W.data, b)
}

final class DenseGrads(inDim: Int, outDim: Int) extends Serializable {
  val dW: Mat = Mat.zeros(outDim, inDim)
  val db: Array[Double] = new Array[Double](outDim)
  def gradients: Seq[Array[Double]] = Seq(dW.data, db)
}

final class DenseTrace(val x: Array[Double], val y: Array[Double])

object Dense {
  def forward(p: DenseParams, x: Array[Double]): DenseTrace = {
    val z = p.W.matvec(x)
    Linalg.axpy(z, p.b, 1.0)
    var i = 0
    while (i < z.length) { z(i) = p.act.f(z(i)); i += 1 }
    new DenseTrace(x, z)
  }

  /** Accumulates grads; returns dL/dx. */
  def backward(p: DenseParams, tr: DenseTrace, dy: Array[Double], g: DenseGrads): Array[Double] = {
    val dz = new Array[Double](dy.length)
    var i = 0
    while (i < dy.length) { dz(i) = dy(i) * p.act.dfFromOut(tr.y(i)); i += 1 }
    g.dW.addOuter(dz, tr.x)
    Linalg.axpy(g.db, dz, 1.0)
    p.W.tmatvec(dz)
  }
}
