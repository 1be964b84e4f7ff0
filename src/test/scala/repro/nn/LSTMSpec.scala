package repro.nn

import org.scalatest.funsuite.AnyFunSuite

/** LSTM/BiLSTM forward + BPTT, verified against finite differences — the
  * load-bearing correctness tests for the from-scratch substrate.
  */
class LSTMSpec extends AnyFunSuite {
  private def seq(rng: scala.util.Random, t: Int, d: Int): Array[Array[Double]] =
    Array.fill(t)(Array.fill(d)(rng.nextGaussian() * 0.5))

  /** Scalar loss = dot(last hidden, probe). */
  private def lossOf(p: LSTMParams, xs: Array[Array[Double]], probe: Array[Double]): Double =
    Linalg.dot(LSTM.forward(p, xs).last, probe)

  test("forward produces one hidden state per step with hidDim size") {
    val p = new LSTMParams(3, 4, 1)
    val tr = LSTM.forward(p, seq(new scala.util.Random(0), 5, 3))
    assert(tr.hs.length == 5)
    assert(tr.hs.forall(_.length == 4))
  }

  test("forward is deterministic") {
    val p = new LSTMParams(3, 4, 1)
    val xs = seq(new scala.util.Random(0), 5, 3)
    assert(LSTM.forward(p, xs).last.sameElements(LSTM.forward(p, xs).last))
  }

  test("empty sequence yields zero last state") {
    val p = new LSTMParams(3, 4, 1)
    assert(LSTM.forward(p, Array.empty).last.forall(_ == 0.0))
  }

  test("hidden states are bounded by tanh range") {
    val p = new LSTMParams(3, 4, 1)
    val tr = LSTM.forward(p, seq(new scala.util.Random(1), 20, 3))
    assert(tr.hs.forall(_.forall(h => h >= -1.0 && h <= 1.0)))
  }

  test("forget-gate bias is initialized to one") {
    val p = new LSTMParams(3, 4, 1)
    assert((4 until 8).forall(p.b(_) == 1.0))
    assert((0 until 4).forall(p.b(_) == 0.0))
  }

  test("different inputs produce different last states") {
    val p = new LSTMParams(3, 4, 1)
    val rng = new scala.util.Random(2)
    val a = LSTM.forward(p, seq(rng, 4, 3)).last
    val b = LSTM.forward(p, seq(rng, 4, 3)).last
    assert(!a.sameElements(b))
  }

  test("word order changes the representation (unlike averaging)") {
    val p = new LSTMParams(3, 4, 1)
    val xs = seq(new scala.util.Random(3), 4, 3)
    val fwd = LSTM.forward(p, xs).last
    val rev = LSTM.forward(p, xs.reverse).last
    assert(!fwd.sameElements(rev))
  }

  private def checkGrad(name: String, analytic: Double, param: Array[Double], i: Int,
                        lossFn: () => Double, tol: Double = 2e-5): Unit = {
    val h = 1e-6
    val orig = param(i)
    param(i) = orig + h; val up = lossFn()
    param(i) = orig - h; val down = lossFn()
    param(i) = orig
    val numeric = (up - down) / (2 * h)
    assert(math.abs(analytic - numeric) < tol, s"$name[$i]: analytic=$analytic numeric=$numeric")
  }

  test("BPTT gradients match finite differences for W, U, b") {
    val rng = new scala.util.Random(4)
    val p = new LSTMParams(3, 4, 5)
    val xs = seq(rng, 6, 3)
    val probe = Array.fill(4)(rng.nextGaussian())
    val g = new LSTMGrads(3, 4)
    LSTM.backward(p, LSTM.forward(p, xs), probe, g)
    def loss() = lossOf(p, xs, probe)
    (0 until p.W.data.length by 5).foreach(i => checkGrad("W", g.dW.data(i), p.W.data, i, loss _))
    (0 until p.U.data.length by 7).foreach(i => checkGrad("U", g.dU.data(i), p.U.data, i, loss _))
    p.b.indices.foreach(i => checkGrad("b", g.db(i), p.b, i, loss _))
  }

  test("BPTT input gradients match finite differences") {
    val rng = new scala.util.Random(5)
    val p = new LSTMParams(3, 4, 6)
    val xs = seq(rng, 5, 3)
    val probe = Array.fill(4)(rng.nextGaussian())
    val dxs = LSTM.backward(p, LSTM.forward(p, xs), probe, new LSTMGrads(3, 4))
    val h = 1e-6
    for (t <- xs.indices; d <- 0 until 3) {
      val orig = xs(t)(d)
      xs(t)(d) = orig + h; val up = lossOf(p, xs, probe)
      xs(t)(d) = orig - h; val down = lossOf(p, xs, probe)
      xs(t)(d) = orig
      assert(math.abs(dxs(t)(d) - (up - down) / (2 * h)) < 2e-5, s"dx($t)($d)")
    }
  }

  test("backward on empty sequence is a no-op") {
    val p = new LSTMParams(3, 4, 7)
    val g = new LSTMGrads(3, 4)
    val dxs = LSTM.backward(p, LSTM.forward(p, Array.empty), Array.fill(4)(1.0), g)
    assert(dxs.isEmpty)
    assert(g.dW.data.forall(_ == 0.0))
  }

  test("BiLSTM output is the concatenation of both directions") {
    val p = new BiLSTMParams(3, 4, 8)
    val xs = seq(new scala.util.Random(6), 5, 3)
    val tr = BiLSTM.forward(p, xs)
    assert(tr.last.length == 8)
    assert(java.util.Arrays.equals(tr.last.take(4), LSTM.forward(p.fwd, xs).last))
    assert(java.util.Arrays.equals(tr.last.drop(4), LSTM.forward(p.bwd, xs.reverse).last))
  }

  test("BiLSTM input gradients match finite differences") {
    val rng = new scala.util.Random(7)
    val p = new BiLSTMParams(2, 3, 9)
    val xs = seq(rng, 4, 2)
    val probe = Array.fill(6)(rng.nextGaussian())
    def loss() = Linalg.dot(BiLSTM.forward(p, xs).last, probe)
    val g = new BiLSTMGrads(2, 3)
    val dxs = BiLSTM.backward(p, BiLSTM.forward(p, xs), probe, g)
    val h = 1e-6
    for (t <- xs.indices; d <- 0 until 2) {
      val orig = xs(t)(d)
      xs(t)(d) = orig + h; val up = loss()
      xs(t)(d) = orig - h; val down = loss()
      xs(t)(d) = orig
      assert(math.abs(dxs(t)(d) - (up - down) / (2 * h)) < 2e-5, s"bi dx($t)($d)")
    }
  }

  test("BiLSTM weight gradients match finite differences (spot check)") {
    val rng = new scala.util.Random(8)
    val p = new BiLSTMParams(2, 3, 10)
    val xs = seq(rng, 4, 2)
    val probe = Array.fill(6)(rng.nextGaussian())
    val g = new BiLSTMGrads(2, 3)
    BiLSTM.backward(p, BiLSTM.forward(p, xs), probe, g)
    def loss() = Linalg.dot(BiLSTM.forward(p, xs).last, probe)
    (0 until p.fwd.W.data.length by 4).foreach(i => checkGrad("fwd.W", g.fwd.dW.data(i), p.fwd.W.data, i, loss _))
    (0 until p.bwd.W.data.length by 4).foreach(i => checkGrad("bwd.W", g.bwd.dW.data(i), p.bwd.W.data, i, loss _))
  }
}
