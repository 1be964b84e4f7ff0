package repro.nn

import org.scalatest.funsuite.AnyFunSuite

class DenseAdamSpec extends AnyFunSuite {

  test("dense identity layer computes W x + b") {
    val p = new DenseParams(2, 2, Identity, 1)
    p.W.setRow(0, Array(1.0, 2.0)); p.W.setRow(1, Array(3.0, 4.0))
    p.b(0) = 0.5; p.b(1) = -0.5
    val y = Dense.forward(p, Array(1.0, 1.0)).y
    assert(y.sameElements(Array(3.5, 6.5)))
  }

  test("tanh activation bounds outputs") {
    val p = new DenseParams(3, 5, Tanh, 2)
    val y = Dense.forward(p, Array(10.0, -10.0, 10.0)).y
    assert(y.forall(v => v >= -1.0 && v <= 1.0))
  }

  private def checkDenseGrads(act: Activation): Unit = {
    val rng = new scala.util.Random(4)
    val p = new DenseParams(3, 2, act, 5)
    val x = Array.fill(3)(rng.nextGaussian())
    val probe = Array.fill(2)(rng.nextGaussian())
    def loss() = Linalg.dot(Dense.forward(p, x).y, probe)
    val g = p.zeroGrads
    val dx = Dense.backward(p, Dense.forward(p, x), probe, g)
    val h = 1e-6
    p.W.data.indices.foreach { i =>
      val o = p.W.data(i)
      p.W.data(i) = o + h; val up = loss()
      p.W.data(i) = o - h; val down = loss()
      p.W.data(i) = o
      assert(math.abs(g.dW.data(i) - (up - down) / (2 * h)) < 1e-5, s"dW[$i]")
    }
    x.indices.foreach { i =>
      val o = x(i)
      x(i) = o + h; val up = loss()
      x(i) = o - h; val down = loss()
      x(i) = o
      assert(math.abs(dx(i) - (up - down) / (2 * h)) < 1e-5, s"dx[$i]")
    }
  }

  test("dense gradients match finite differences (tanh)") { checkDenseGrads(Tanh) }
  test("dense gradients match finite differences (identity)") { checkDenseGrads(Identity) }

  test("Adam minimizes a quadratic") {
    val x = Array(5.0, -3.0)
    val g = new Array[Double](2)
    val opt = new Adam(lr = 0.1)
    opt.register(x, g)
    (1 to 500).foreach { _ =>
      g(0) = 2 * (x(0) - 1.0); g(1) = 2 * (x(1) + 2.0)
      opt.step()
    }
    assert(math.abs(x(0) - 1.0) < 1e-3 && math.abs(x(1) + 2.0) < 1e-3)
  }

  test("Adam lrScale slows a parameter group") {
    val fast = Array(5.0); val gFast = new Array[Double](1)
    val slow = Array(5.0); val gSlow = new Array[Double](1)
    val opt = new Adam(lr = 0.05)
    opt.register(fast, gFast, 1.0)
    opt.register(slow, gSlow, 0.01)
    (1 to 50).foreach { _ =>
      gFast(0) = 2 * fast(0); gSlow(0) = 2 * slow(0)
      opt.step()
    }
    assert(math.abs(fast(0)) < math.abs(slow(0)))
  }

  test("Adam L2 shrinks parameters with zero data gradient") {
    val x = Array(5.0); val g = new Array[Double](1)
    val opt = new Adam(lr = 0.1)
    opt.register(x, g)
    (1 to 100).foreach(_ => opt.step(l2 = 0.1))
    assert(math.abs(x(0)) < 5.0)
  }

  test("Adam zeroes gradients after a step") {
    val x = Array(1.0); val g = Array(3.0)
    val opt = new Adam()
    opt.register(x, g)
    opt.step()
    assert(g(0) == 0.0)
  }

  test("MLP learns XOR") {
    val xs = IndexedSeq(Array(0.0, 0.0), Array(0.0, 1.0), Array(1.0, 0.0), Array(1.0, 1.0))
    val ys = IndexedSeq(0.0, 1.0, 1.0, 0.0)
    val mlp = new MLPClassifier(2, hidden = 8, seed = 11)
    mlp.fit(xs, ys, epochs = 600, batchSize = 4, lr = 0.05, l2 = 0.0)
    xs.zip(ys).foreach { case (x, y) =>
      val p = mlp.predictProb(x)
      assert(if (y > 0.5) p > 0.5 else p < 0.5, s"xor(${x.toSeq}) -> $p expected $y")
    }
  }

  test("MLP training loss decreases") {
    val rng = new scala.util.Random(12)
    val xs = IndexedSeq.fill(200)(Array.fill(4)(rng.nextGaussian()))
    val ys = xs.map(x => if (x.sum > 0) 1.0 else 0.0)
    val mlp = new MLPClassifier(4, hidden = 10, seed = 13)
    val losses = mlp.fit(xs, ys, epochs = 15, lr = 0.02)
    assert(losses.last < losses.head)
  }

  test("MLP is deterministic in seed") {
    val rng = new scala.util.Random(14)
    val xs = IndexedSeq.fill(50)(Array.fill(3)(rng.nextGaussian()))
    val ys = xs.map(x => if (x(0) > 0) 1.0 else 0.0)
    def trained() = {
      val m = new MLPClassifier(3, 6, seed = 15)
      m.fit(xs, ys, epochs = 5, seed = 16)
      xs.map(m.predictProb)
    }
    assert(trained() == trained())
  }
}
