package repro.nn

/** Long short-term memory RNN (Hochreiter & Schmidhuber 1997) with full
  * backpropagation-through-time, as used by the paper's compositional
  * approach (Algorithm 2, Figure 3).
  *
  * Gate layout in the stacked 4H blocks is [i, f, g, o]:
  * {{{
  *   i = sigmoid(Wi x + Ui h + bi)     input gate
  *   f = sigmoid(Wf x + Uf h + bf)     forget gate (bias init +1)
  *   g = tanh   (Wg x + Ug h + bg)     candidate cell
  *   o = sigmoid(Wo x + Uo h + bo)     output gate
  *   c = f*c' + i*g ;  h = o * tanh(c)
  * }}}
  */
final class LSTMParams(val inDim: Int, val hidDim: Int, seed: Long) extends Serializable {
  val W: Mat = Mat.glorot(4 * hidDim, inDim, seed)
  val U: Mat = Mat.glorot(4 * hidDim, hidDim, seed + 1)
  val b: Array[Double] = new Array[Double](4 * hidDim)
  // Forget-gate bias +1: standard trick so early training does not erase
  // the cell state, which matters for the short attribute sequences here.
  (hidDim until 2 * hidDim).foreach(b(_) = 1.0)

  def parameters: Seq[Array[Double]] = Seq(W.data, U.data, b)
}

final class LSTMGrads(inDim: Int, hidDim: Int) extends Serializable {
  val dW: Mat = Mat.zeros(4 * hidDim, inDim)
  val dU: Mat = Mat.zeros(4 * hidDim, hidDim)
  val db: Array[Double] = new Array[Double](4 * hidDim)
  def gradients: Seq[Array[Double]] = Seq(dW.data, dU.data, db)
}

/** Cached per-step activations from a forward pass, consumed by backward. */
final class LSTMTrace(
    val xs: Array[Array[Double]],
    val gates: Array[Array[Double]], // 4H per step, post-activation [i,f,g,o]
    val cs: Array[Array[Double]],    // cell states
    val hs: Array[Array[Double]],    // hidden states
) {
  def last: Array[Double] = if (hs.isEmpty) Array.empty[Double] else hs.last
}

object LSTM {

  /** Run the LSTM over a token-vector sequence; empty input yields a trace
    * whose `last` is the zero vector of size hidDim.
    */
  def forward(p: LSTMParams, xs: Array[Array[Double]]): LSTMTrace = {
    val H = p.hidDim
    val T = xs.length
    val gates = new Array[Array[Double]](T)
    val cs = new Array[Array[Double]](T)
    val hs = new Array[Array[Double]](T)
    var hPrev = new Array[Double](H)
    var cPrev = new Array[Double](H)
    var t = 0
    while (t < T) {
      val a = Linalg.add(p.W.matvec(xs(t)), p.U.matvec(hPrev))
      Linalg.axpy(a, p.b, 1.0)
      val g = new Array[Double](4 * H)
      var j = 0
      while (j < 4 * H) {
        g(j) = if (j >= 2 * H && j < 3 * H) Linalg.tanh(a(j)) else Linalg.sigmoid(a(j))
        j += 1
      }
      val c = new Array[Double](H)
      val h = new Array[Double](H)
      var k = 0
      while (k < H) {
        c(k) = g(H + k) * cPrev(k) + g(k) * g(2 * H + k)
        h(k) = g(3 * H + k) * Linalg.tanh(c(k))
        k += 1
      }
      gates(t) = g; cs(t) = c; hs(t) = h
      hPrev = h; cPrev = c
      t += 1
    }
    // Empty sequence: treat as one-step zero hidden state for the caller.
    if (T == 0) new LSTMTrace(xs, gates, cs, Array(new Array[Double](H)))
    else new LSTMTrace(xs, gates, cs, hs)
  }

  /** BPTT given the loss gradient w.r.t. the final hidden state.
    *
    * Accumulates into `grads` and returns dL/dx_t for every step, so the
    * caller can continue the chain into the (trainable) embedding layer
    * — the paper's end-to-end tuning of Section 3.4.
    */
  def backward(p: LSTMParams, tr: LSTMTrace, dhLast: Array[Double], grads: LSTMGrads): Array[Array[Double]] = {
    val H = p.hidDim
    val T = tr.xs.length
    val dxs = Array.fill(T)(new Array[Double](p.inDim))
    if (T == 0) return dxs
    var dh = dhLast.clone()
    var dc = new Array[Double](H)
    var t = T - 1
    while (t >= 0) {
      val g = tr.gates(t)
      val c = tr.cs(t)
      val cPrev = if (t == 0) new Array[Double](H) else tr.cs(t - 1)
      val hPrev = if (t == 0) new Array[Double](H) else tr.hs(t - 1)
      val da = new Array[Double](4 * H)
      val dcNext = new Array[Double](H)
      var k = 0
      while (k < H) {
        val i = g(k); val f = g(H + k); val gg = g(2 * H + k); val o = g(3 * H + k)
        val tc = Linalg.tanh(c(k))
        val dck = dc(k) + dh(k) * o * (1.0 - tc * tc)
        da(k)         = dck * gg * i * (1.0 - i)        // input gate
        da(H + k)     = dck * cPrev(k) * f * (1.0 - f)  // forget gate
        da(2 * H + k) = dck * i * (1.0 - gg * gg)       // candidate
        da(3 * H + k) = dh(k) * tc * o * (1.0 - o)      // output gate
        dcNext(k) = dck * f
        k += 1
      }
      grads.dW.addOuter(da, tr.xs(t))
      grads.dU.addOuter(da, hPrev)
      Linalg.axpy(grads.db, da, 1.0)
      dxs(t) = p.W.tmatvec(da)
      dh = p.U.tmatvec(da)
      dc = dcNext
      t -= 1
    }
    dxs
  }
}

/** Bidirectional LSTM: final representation is [h_fwd_last ; h_bwd_last]
  * (Schuster & Paliwal 1997), as in Section 2.3 of the paper.
  */
final class BiLSTMParams(val inDim: Int, val hidDim: Int, seed: Long) extends Serializable {
  val fwd = new LSTMParams(inDim, hidDim, seed)
  val bwd = new LSTMParams(inDim, hidDim, seed + 100)
  def parameters: Seq[Array[Double]] = fwd.parameters ++ bwd.parameters
}

final class BiLSTMGrads(inDim: Int, hidDim: Int) extends Serializable {
  val fwd = new LSTMGrads(inDim, hidDim)
  val bwd = new LSTMGrads(inDim, hidDim)
  def gradients: Seq[Array[Double]] = fwd.gradients ++ bwd.gradients
}

final class BiLSTMTrace(val fwd: LSTMTrace, val bwd: LSTMTrace) {
  def last: Array[Double] = fwd.last ++ bwd.last
}

object BiLSTM {
  def forward(p: BiLSTMParams, xs: Array[Array[Double]]): BiLSTMTrace =
    new BiLSTMTrace(LSTM.forward(p.fwd, xs), LSTM.forward(p.bwd, xs.reverse))

  /** Returns dL/dx_t in the original sequence order. */
  def backward(p: BiLSTMParams, tr: BiLSTMTrace, dOut: Array[Double], grads: BiLSTMGrads): Array[Array[Double]] = {
    val H = p.hidDim
    val dFwd = java.util.Arrays.copyOfRange(dOut, 0, H)
    val dBwd = java.util.Arrays.copyOfRange(dOut, H, 2 * H)
    val dx1 = LSTM.backward(p.fwd, tr.fwd, dFwd, grads.fwd)
    val dx2 = LSTM.backward(p.bwd, tr.bwd, dBwd, grads.bwd).reverse
    dx1.indices.foreach(i => Linalg.axpy(dx1(i), dx2(i), 1.0))
    dx1
  }
}
