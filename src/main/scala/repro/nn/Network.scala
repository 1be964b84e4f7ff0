package repro.nn

/** A labeled tuple pair, already tokenized to embedding-table indices.
  * `a(k)` / `b(k)` are the token-index sequences of attribute k.
  */
final case class PairExample(a: Array[Array[Int]], b: Array[Array[Int]], label: Double) extends Serializable

/** Composition method used to turn word vectors into tuple DRs (Section 2.3). */
sealed trait Composition extends Serializable
/** Algorithm 1: per-attribute averaging; similarity = m-dim cosine vector. */
case object AvgComp extends Composition
/** Algorithm 2: shared unidirectional LSTM over the whole tuple; similarity = |v-v'|. */
final case class LstmComp(hidDim: Int) extends Composition
/** Algorithm 2, bidirectional variant. */
final case class BiLstmComp(hidDim: Int) extends Composition
/** Sentence2Vec-like stand-in: one averaged vector over all tokens of the
  * tuple, ignoring attribute boundaries (loses per-attribute alignment).
  */
case object Sent2VecComp extends Composition

/** The Deep Entity Resolution network of Figure 5:
  * embedding lookup → composition → similarity → dense → classification.
  *
  * Training runs on the driver (training sets are hundreds–thousands of
  * pairs, the paper's regime); the fitted network is `Serializable` so it
  * can be broadcast for distributed scoring of candidate pairs.
  *
  * @param emb             trainable embedding table (row = token vector);
  *                        row `unkIdx` is the UNK token
  * @param nAttrs          number of aligned attributes m
  * @param trainEmbeddings backpropagate into `emb` (Section 3.4)
  */
final class DeepERNet(
    val emb: Mat,
    val unkIdx: Int,
    val nAttrs: Int,
    val comp: Composition,
    val hidden: Int = 50,
    val trainEmbeddings: Boolean = false,
    seed: Long = 42,
) extends Serializable {

  val dim: Int = emb.cols

  private val lstmP: LSTMParams = comp match {
    case LstmComp(h) => new LSTMParams(dim, h, seed + 1)
    case _           => null
  }
  private val biP: BiLSTMParams = comp match {
    case BiLstmComp(h) => new BiLSTMParams(dim, h, seed + 2)
    case _             => null
  }

  val simDim: Int = comp match {
    case AvgComp        => nAttrs
    case LstmComp(h)    => h
    case BiLstmComp(h)  => 2 * h
    case Sent2VecComp   => dim
  }
  private val dense1 = new DenseParams(simDim, hidden, Tanh, seed + 3)
  private val dense2 = new DenseParams(hidden, 1, Identity, seed + 4)

  // ---- gradients -------------------------------------------------------
  private val dEmb = Mat.zeros(emb.rows, emb.cols)
  private val lstmG = if (lstmP != null) lstmP.zeroGrads else null
  private val biG = if (biP != null) new BiLSTMGrads(dim, biP.hidDim) else null
  private val d1G = dense1.zeroGrads
  private val d2G = dense2.zeroGrads

  private def lookup(idx: Int): Array[Double] = emb.row(idx)

  private def tokensOf(t: Array[Array[Int]]): Array[Int] = t.flatten

  /** Per-tuple DR(s): one vector per attribute for Avg, a single composed
    * vector otherwise. Also returns traces needed for backprop.
    */
  private final class TupleFwd(
      val attrVecs: Array[Array[Double]],  // Avg: m vectors; else: length 1
      val lstmTr: LSTMTrace,
      val biTr: BiLSTMTrace,
      val flatTokens: Array[Int],
  )

  private def forwardTuple(t: Array[Array[Int]]): TupleFwd = comp match {
    case AvgComp =>
      val vs = t.map { toks =>
        if (toks.isEmpty) lookup(unkIdx)
        else Linalg.mean(toks.toIndexedSeq.map(lookup))
      }
      new TupleFwd(vs, null, null, null)
    case Sent2VecComp =>
      val toks = tokensOf(t)
      val v = if (toks.isEmpty) lookup(unkIdx) else Linalg.mean(toks.toIndexedSeq.map(lookup))
      new TupleFwd(Array(v), null, null, toks)
    case LstmComp(_) =>
      val toks = tokensOf(t)
      val tr = LSTM.forward(lstmP, toks.map(lookup))
      new TupleFwd(Array(tr.last), tr, null, toks)
    case BiLstmComp(_) =>
      val toks = tokensOf(t)
      val tr = BiLSTM.forward(biP, toks.map(lookup))
      new TupleFwd(Array(tr.last), null, tr, toks)
  }

  private final class PairFwd(
      val fa: TupleFwd, val fb: TupleFwd,
      val sim: Array[Double],
      val t1: DenseTrace, val t2: DenseTrace,
      val prob: Double,
  )

  /** Similarity layer: cosine per attribute (Avg) or |v - v'| (composed). */
  private def forwardPair(ex: PairExample): PairFwd = {
    val fa = forwardTuple(ex.a)
    val fb = forwardTuple(ex.b)
    val sim: Array[Double] = comp match {
      case AvgComp =>
        Array.tabulate(nAttrs)(k => Linalg.cosine(fa.attrVecs(k), fb.attrVecs(k)))
      case _ =>
        val d = Linalg.sub(fa.attrVecs(0), fb.attrVecs(0))
        d.map(math.abs)
    }
    val t1 = Dense.forward(dense1, sim)
    val t2 = Dense.forward(dense2, t1.y)
    new PairFwd(fa, fb, sim, t1, t2, Linalg.sigmoid(t2.y(0)))
  }

  def predictProb(ex: PairExample): Double = forwardPair(ex).prob

  /** Gradient of cosine(a,b) w.r.t. a, reusing precomputed norms. */
  private def dCosine(a: Array[Double], b: Array[Double], s: Double, dUp: Double): Array[Double] = {
    val na = Linalg.norm(a); val nb = Linalg.norm(b)
    if (na == 0.0 || nb == 0.0) new Array[Double](a.length)
    else {
      val g = new Array[Double](a.length)
      var i = 0
      while (i < a.length) { g(i) = dUp * (b(i) / (na * nb) - s * a(i) / (na * na)); i += 1 }
      g
    }
  }

  private def accumulateEmbGrad(toks: Array[Int], dxs: Array[Array[Double]]): Unit = {
    var i = 0
    while (i < toks.length) {
      val r = toks(i); val off = r * dim; var j = 0
      while (j < dim) { dEmb.data(off + j) += dxs(i)(j); j += 1 }
      i += 1
    }
  }

  private def backwardAvgTuple(t: Array[Array[Int]], dVecs: Array[Array[Double]]): Unit = {
    var k = 0
    while (k < t.length) {
      val toks = if (t(k).isEmpty) Array(unkIdx) else t(k)
      val w = 1.0 / toks.length
      val dv = dVecs(k)
      toks.foreach { r =>
        val off = r * dim; var j = 0
        while (j < dim) { dEmb.data(off + j) += dv(j) * w; j += 1 }
      }
      k += 1
    }
  }

  /** One example's backward pass; returns BCE loss. */
  private def backwardPair(ex: PairExample): Double = {
    val f = forwardPair(ex)
    val p = f.prob
    val loss = -(ex.label * math.log(math.max(p, 1e-12)) +
      (1 - ex.label) * math.log(math.max(1 - p, 1e-12)))
    // d(BCE∘sigmoid)/dz = p - y
    val dz = Array(p - ex.label)
    val dH = Dense.backward(dense2, f.t2, dz, d2G)
    val dSim = Dense.backward(dense1, f.t1, dH, d1G)

    comp match {
      case AvgComp =>
        if (trainEmbeddings) {
          val dA = Array.tabulate(nAttrs) { k =>
            dCosine(f.fa.attrVecs(k), f.fb.attrVecs(k), f.sim(k), dSim(k))
          }
          val dB = Array.tabulate(nAttrs) { k =>
            dCosine(f.fb.attrVecs(k), f.fa.attrVecs(k), f.sim(k), dSim(k))
          }
          backwardAvgTuple(ex.a, dA)
          backwardAvgTuple(ex.b, dB)
        }
      case _ =>
        val diff = Linalg.sub(f.fa.attrVecs(0), f.fb.attrVecs(0))
        val dVa = new Array[Double](diff.length)
        var i = 0
        while (i < diff.length) {
          val sgn = if (diff(i) > 0) 1.0 else if (diff(i) < 0) -1.0 else 0.0
          dVa(i) = dSim(i) * sgn
          i += 1
        }
        val dVb = Linalg.scale(dVa, -1.0)
        def backTuple(tf: TupleFwd, dV: Array[Double]): Unit = comp match {
          case LstmComp(_) =>
            val dxs = LSTM.backward(lstmP, tf.lstmTr, dV, lstmG)
            if (trainEmbeddings) accumulateEmbGrad(tf.flatTokens, dxs)
          case BiLstmComp(_) =>
            val dxs = BiLSTM.backward(biP, tf.biTr, dV, biG)
            if (trainEmbeddings) accumulateEmbGrad(tf.flatTokens, dxs)
          case Sent2VecComp =>
            if (trainEmbeddings) {
              val toks = if (tf.flatTokens.isEmpty) Array(unkIdx) else tf.flatTokens
              val w = 1.0 / toks.length
              toks.foreach { r =>
                val off = r * dim; var j = 0
                while (j < dim) { dEmb.data(off + j) += dV(j) * w; j += 1 }
              }
            }
          case AvgComp => ()
        }
        backTuple(f.fa, dVa)
        backTuple(f.fb, dVb)
    }
    loss
  }

  /** Mini-batch training per Section 5.1: Adam, default lr 0.01, batch 16,
    * 20 epochs, L2 1e-3, embedding update rate 0.01 (when enabled).
    * Deterministic in `seed`. Returns per-epoch mean loss.
    */
  def fit(
      examples: IndexedSeq[PairExample],
      epochs: Int = 20,
      batchSize: Int = 16,
      lr: Double = 0.01,
      l2: Double = 1e-3,
      embLrScale: Double = 1.0,
      seed: Long = 7,
  ): Seq[Double] = {
    val opt = new Adam(lr)
    opt.registerAll(dense1.parameters, d1G.gradients)
    opt.registerAll(dense2.parameters, d2G.gradients)
    comp match {
      case LstmComp(_)   => opt.registerAll(lstmP.parameters, lstmG.gradients)
      case BiLstmComp(_) => opt.registerAll(biP.parameters, biG.gradients)
      case _             => ()
    }
    if (trainEmbeddings) opt.register(emb.data, dEmb.data, embLrScale, decay = false)
    val rng = new scala.util.Random(seed)
    (1 to epochs).map { _ =>
      val order = rng.shuffle(examples.indices.toIndexedSeq)
      var total = 0.0
      order.grouped(batchSize).foreach { batch =>
        batch.foreach(i => total += backwardPair(examples(i)))
        // Mean gradient over the batch.
        val inv = 1.0 / batch.size
        Seq(d1G.gradients, d2G.gradients).foreach(_.foreach(g => (0 until g.length).foreach(i => g(i) *= inv)))
        comp match {
          case LstmComp(_)   => lstmG.gradients.foreach(g => (0 until g.length).foreach(i => g(i) *= inv))
          case BiLstmComp(_) => biG.gradients.foreach(g => (0 until g.length).foreach(i => g(i) *= inv))
          case _             => ()
        }
        if (trainEmbeddings) (0 until dEmb.data.length).foreach(i => dEmb.data(i) *= inv)
        opt.step(l2)
        if (trainEmbeddings) java.util.Arrays.fill(dEmb.data, 0.0)
      }
      total / examples.size
    }
  }
}

/** Plain MLP head (simDim → hidden tanh units → sigmoid) over *precomputed*
  * similarity vectors. With frozen embeddings and averaging composition the
  * tuple DRs and similarity vectors are constants, so Table-4-style
  * experiments train this head directly — same math as [[DeepERNet]]'s
  * classification stage, orders of magnitude faster.
  *
  * Training is one fused loop over the weight arrays: buffers are allocated
  * once per `fit`, nothing per example or per batch. Every sum runs in the
  * order of the [[Dense]]-layer formulation (dot product from 0.0, then
  * the bias), so results are bit-identical to it. `predictProb` only reads
  * the weights and allocates nothing, so one instance may score from many
  * threads at once (the broadcast scoring UDF does).
  */
final class MLPClassifier(val inDim: Int, val hidden: Int = 50, seed: Long = 42) extends Serializable {
  private val w1: Array[Double] = Mat.glorot(hidden, inDim, seed).data // row-major hidden x inDim
  private val b1: Array[Double] = new Array[Double](hidden)
  private val w2: Array[Double] = Mat.glorot(1, hidden, seed + 1).data
  private val b2: Array[Double] = new Array[Double](1)

  /** Pre-activation of hidden unit `r`: (W1 x)(r) + b1(r). */
  private def preact(x: Array[Double], r: Int): Double = {
    val off = r * inDim
    var s = 0.0; var c = 0
    while (c < inDim) { s += w1(off + c) * x(c); c += 1 }
    s + b1(r)
  }

  def predictProb(x: Array[Double]): Double = {
    require(x.length == inDim, s"predictProb: expected $inDim features, got ${x.length}")
    var z = 0.0; var r = 0
    while (r < hidden) { z += w2(r) * Linalg.tanh(preact(x, r)); r += 1 }
    Linalg.sigmoid(z + b2(0))
  }

  /** Mini-batch Adam with BCE loss and L2 weight decay; deterministic in
    * `seed`. Returns the mean loss of each epoch.
    */
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
    require(batchSize > 0, s"batchSize must be positive, got $batchSize")
    xs.foreach(x => require(x.length == inDim, s"fit: expected $inDim features, got ${x.length}"))
    val n = xs.length
    val xa = xs.toArray
    val ya = ys.toArray
    val dw1 = new Array[Double](w1.length)
    val db1 = new Array[Double](hidden)
    val dw2 = new Array[Double](hidden)
    val db2 = new Array[Double](1)
    val h = new Array[Double](hidden)
    val order = new Array[Int](n)
    val grads = Array(dw1, db1, dw2, db2)
    val opt = new Adam(lr)
    opt.register(w1, dw1); opt.register(b1, db1)
    opt.register(w2, dw2); opt.register(b2, db2)
    val rng = new scala.util.Random(seed)
    val losses = new Array[Double](epochs)
    var epoch = 0
    while (epoch < epochs) {
      MLPClassifier.shuffledIndices(rng, order)
      var total = 0.0
      var start = 0
      while (start < n) {
        val end = math.min(start + batchSize, n)
        var j = start
        while (j < end) {
          val x = xa(order(j)); val y = ya(order(j))
          // Forward: h = tanh(W1 x + b1), p = sigmoid(w2 . h + b2).
          var z = 0.0; var r = 0
          while (r < hidden) { h(r) = Linalg.tanh(preact(x, r)); z += w2(r) * h(r); r += 1 }
          val p = Linalg.sigmoid(z + b2(0))
          total += -(y * math.log(math.max(p, 1e-12)) + (1 - y) * math.log(math.max(1 - p, 1e-12)))
          // Backward: d(BCE∘sigmoid)/dz = p - y; tanh' = 1 - h².
          val dz = p - y
          db2(0) += dz
          r = 0
          while (r < hidden) {
            dw2(r) += dz * h(r)
            val dzr = w2(r) * dz * (1.0 - h(r) * h(r))
            db1(r) += dzr
            val off = r * inDim; var c = 0
            while (c < inDim) { dw1(off + c) += dzr * x(c); c += 1 }
            r += 1
          }
          j += 1
        }
        // Mean gradient over the batch.
        val inv = 1.0 / (end - start)
        var g = 0
        while (g < grads.length) {
          val a = grads(g); var i = 0
          while (i < a.length) { a(i) *= inv; i += 1 }
          g += 1
        }
        opt.step(l2)
        start = end
      }
      losses(epoch) = total / n
      epoch += 1
    }
    losses.toSeq
  }
}

object MLPClassifier {
  /** Fills `order` with a permutation of 0 until order.length, drawn with
    * exactly the `nextInt` calls of `rng.shuffle(0 until order.length)`
    * (Fisher–Yates from the top), so it yields the same permutation.
    */
  private[nn] def shuffledIndices(rng: scala.util.Random, order: Array[Int]): Unit = {
    var i = 0
    while (i < order.length) { order(i) = i; i += 1 }
    var m = order.length
    while (m >= 2) {
      val k = rng.nextInt(m)
      val tmp = order(m - 1); order(m - 1) = order(k); order(k) = tmp
      m -= 1
    }
  }
}
