package repro.nn

/** A labeled tuple pair, already tokenized to embedding-table indices.
  * `a(k)` / `b(k)` are the token-index sequences of attribute k.
  */
final case class PairExample(a: Array[Array[Int]], b: Array[Array[Int]], label: Double) extends Serializable

/** Composition method used to turn word vectors into tuple DRs (Section 2.3). */
sealed trait Composition extends Serializable
/** Algorithm 1: per-attribute averaging; similarity = m-dim cosine vector. */
case object AvgComp extends Composition
/** Algorithm 2, bidirectional: a shared Bi-LSTM over the whole tuple;
  * similarity = |v-v'|.
  */
final case class BiLstmComp(hidDim: Int) extends Composition
/** Sentence2Vec-like stand-in: one averaged vector over all tokens of the
  * tuple, ignoring attribute boundaries (loses per-attribute alignment).
  */
case object Sent2VecComp extends Composition

/** The Deep Entity Resolution network of Figure 5:
  * embedding lookup → composition → similarity → dense → classification.
  * The dense and classification stages are the [[MLPClassifier]] head;
  * this class adds the stages before it and backpropagates into them.
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

  /** The Bi-LSTM composer's parameters and their gradients; `None` for the averaging compositions. */
  private val biLstm: Option[(BiLSTMParams, BiLSTMGrads)] = comp match {
    case BiLstmComp(h) => Some((new BiLSTMParams(dim, h, seed + 2), new BiLSTMGrads(dim, h)))
    case _             => None
  }

  val simDim: Int = comp match {
    case AvgComp        => nAttrs
    case BiLstmComp(h)  => 2 * h
    case Sent2VecComp   => dim
  }
  private val head = new MLPClassifier(simDim, hidden, seed + 3)

  private val dEmb = Mat.zeros(emb.rows, emb.cols)

  private def lookup(idx: Int): Array[Double] = emb.row(idx)

  /** Adds `w * v` to row `r` of `dEmb`. */
  private def addToRow(r: Int, v: Array[Double], w: Double): Unit = {
    val off = r * dim; var j = 0
    while (j < dim) { dEmb.data(off + j) += v(j) * w; j += 1 }
  }

  /** A tuple's DR vectors, and the backward that takes dL/d(those vectors). */
  private type Composed = (Array[Array[Double]], Array[Array[Double]] => Unit)

  /** Composition (Section 2.3): one vector per attribute for Avg, one for
    * the tuple otherwise. The backward adds into the Bi-LSTM's gradients
    * and, when `trainEmbeddings` is set, into `dEmb`.
    */
  private def compose(t: Array[Array[Int]]): Composed = biLstm match {
    case Some((p, g)) =>
      val toks = t.flatten
      val tr = BiLSTM.forward(p, toks.map(lookup))
      (Array(tr.last), dV => {
        val dxs = BiLSTM.backward(p, tr, dV(0), g)
        if (trainEmbeddings) toks.indices.foreach(i => addToRow(toks(i), dxs(i), 1.0))
      })
    case None => average(if (comp == AvgComp) t else Array(t.flatten))
  }

  /** Averaging (Algorithm 1): the mean vector of each token list, UNK's for
    * an empty one. Its backward scatters each dV/n into the rows of the n tokens.
    */
  private def average(t: Array[Array[Int]]): Composed = {
    val vecs = t.map(ts => if (ts.isEmpty) lookup(unkIdx) else Linalg.mean(ts.toIndexedSeq.map(lookup)))
    (vecs, dVecs => if (trainEmbeddings) t.indices.foreach { k =>
      val rows = if (t(k).isEmpty) Array(unkIdx) else t(k)
      rows.foreach(addToRow(_, dVecs(k), 1.0 / rows.length))
    })
  }

  /** Similarity layer: cosine per attribute (Avg) or |va - vb| (composed). */
  private def similarity(va: Array[Array[Double]], vb: Array[Array[Double]]): Array[Double] =
    if (comp == AvgComp) Array.tabulate(nAttrs)(k => Linalg.cosine(va(k), vb(k)))
    else Linalg.sub(va(0), vb(0)).map(math.abs)

  def predictProb(ex: PairExample): Double = head.predictProb(similarity(compose(ex.a)._1, compose(ex.b)._1))

  /** Backward of [[similarity]]: dL/dva and dL/dvb from dL/dsim. */
  private def similarityBackward(va: Array[Array[Double]], vb: Array[Array[Double]], sim: Array[Double],
      dSim: Array[Double]): (Array[Array[Double]], Array[Array[Double]]) =
    if (comp == AvgComp)
      (Array.tabulate(nAttrs)(k => dCosine(va(k), vb(k), sim(k), dSim(k))),
        Array.tabulate(nAttrs)(k => dCosine(vb(k), va(k), sim(k), dSim(k))))
    else {
      val diff = Linalg.sub(va(0), vb(0))
      val dVa = Array.tabulate(diff.length) { i =>
        dSim(i) * (if (diff(i) > 0) 1.0 else if (diff(i) < 0) -1.0 else 0.0)
      }
      (Array(dVa), Array(Linalg.scale(dVa, -1.0)))
    }

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

  /** One example's forward and backward pass; returns its BCE loss. `dSim`
    * receives the head's dL/d(similarity); it is null when nothing below
    * the head trains, and the stages below the head then run forward only.
    */
  private def backwardPair(ex: PairExample, g: MLPClassifier.Grads, dSim: Array[Double]): Double = {
    val (va, backA) = compose(ex.a)
    val (vb, backB) = compose(ex.b)
    val sim = similarity(va, vb)
    val loss = head.accumulate(sim, ex.label, g, dSim)
    if (dSim != null) {
      val (dA, dB) = similarityBackward(va, vb, sim, dSim)
      backA(dA)
      backB(dB)
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
    val g = head.grads(opt)
    biLstm.foreach { case (p, pg) => opt.registerAll(p.parameters, pg.gradients) }
    if (trainEmbeddings) opt.register(emb.data, dEmb.data, embLrScale, decay = false)
    val dSim = if (trainEmbeddings || biLstm.isDefined) new Array[Double](simDim) else null
    MLPClassifier.train(examples.size, epochs, batchSize, opt, l2, seed)(i => backwardPair(examples(i), g, dSim))
  }
}

/** The Figure-5 head (simDim → hidden tanh units → sigmoid) over
  * similarity vectors. With frozen embeddings and averaging composition the
  * tuple DRs and similarity vectors are constants, so Table-4-style
  * experiments train this head directly on precomputed vectors;
  * [[DeepERNet]] uses the same head on the vectors it computes.
  *
  * Training allocates its buffers once per `fit`, nothing per example or
  * per batch. W1 is stored input-major, `w1(c * hidden + r)`, so the loops
  * of a training step run over hidden units at unit stride. Every sum still
  * runs in the order of a layer-by-layer dense formulation: a hidden unit's
  * pre-activation starts at 0.0, adds the inputs in column order, then its
  * bias. `predictProb` only reads the weights and allocates nothing, so one
  * instance may score from many threads at once (the broadcast scoring UDF
  * does).
  */
final class MLPClassifier(val inDim: Int, val hidden: Int = 50, seed: Long = 42) extends Serializable {
  // Glorot draws in hidden-major order, transposed to w1(c * hidden + r).
  private val w1: Array[Double] = {
    val m = Mat.glorot(hidden, inDim, seed)
    Array.tabulate(inDim * hidden)(i => m(i % hidden, i / hidden))
  }
  private val b1: Array[Double] = new Array[Double](hidden)
  private val w2: Array[Double] = Mat.glorot(1, hidden, seed + 1).data
  private val b2: Array[Double] = new Array[Double](1)

  def predictProb(x: Array[Double]): Double = {
    require(x.length == inDim, s"predictProb: expected $inDim features, got ${x.length}")
    var z = 0.0; var r = 0
    while (r < hidden) {
      var s = 0.0; var c = 0
      while (c < inDim) { s += w1(c * hidden + r) * x(c); c += 1 }
      z += w2(r) * Linalg.tanh(s + b1(r))
      r += 1
    }
    Linalg.sigmoid(z + b2(0))
  }

  /** Allocates this head's gradient buffers and registers them with `opt`. */
  private[nn] def grads(opt: Adam): MLPClassifier.Grads = {
    val g = new MLPClassifier.Grads(inDim, hidden)
    opt.register(w1, g.w1); opt.register(b1, g.b1)
    opt.register(w2, g.w2); opt.register(b2, g.b2)
    g
  }

  /** Forward and backward pass of one example: adds its gradients to `g`
    * and returns its BCE loss. A non-null `dx` is overwritten with dL/dx,
    * summed over hidden units in ascending order as `Mat.tmatvec` does.
    */
  private[nn] def accumulate(x: Array[Double], y: Double, g: MLPClassifier.Grads, dx: Array[Double]): Double = {
    val h = g.h
    val dzr = g.dzr
    // Forward: h = tanh(W1 x + b1), p = sigmoid(w2 . h + b2).
    java.util.Arrays.fill(h, 0.0)
    var c = 0
    while (c < inDim) {
      val xc = x(c); val off = c * hidden; var r = 0
      while (r < hidden) { h(r) += w1(off + r) * xc; r += 1 }
      c += 1
    }
    var z = 0.0; var r = 0
    while (r < hidden) { h(r) = Linalg.tanh(h(r) + b1(r)); z += w2(r) * h(r); r += 1 }
    val p = Linalg.sigmoid(z + b2(0))
    // Backward: d(BCE∘sigmoid)/dz = p - y; tanh' = 1 - h².
    val dz = p - y
    g.b2(0) += dz
    r = 0
    while (r < hidden) {
      g.w2(r) += dz * h(r)
      dzr(r) = w2(r) * dz * (1.0 - h(r) * h(r))
      g.b1(r) += dzr(r)
      r += 1
    }
    c = 0
    while (c < inDim) {
      val xc = x(c); val off = c * hidden
      r = 0
      while (r < hidden) { g.w1(off + r) += dzr(r) * xc; r += 1 }
      if (dx != null) {
        var s = 0.0
        r = 0
        while (r < hidden) { s += w1(off + r) * dzr(r); r += 1 }
        dx(c) = s
      }
      c += 1
    }
    -(y * math.log(math.max(p, 1e-12)) + (1 - y) * math.log(math.max(1 - p, 1e-12)))
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
    xs.foreach(x => require(x.length == inDim, s"fit: expected $inDim features, got ${x.length}"))
    val xa = xs.toArray
    val ya = ys.toArray
    val opt = new Adam(lr)
    val g = grads(opt)
    MLPClassifier.train(xa.length, epochs, batchSize, opt, l2, seed)(i => accumulate(xa(i), ya(i), g, null))
  }
}

object MLPClassifier {
  /** Gradient buffers of one training run, and the hidden activations and
    * pre-activation gradients of the example in flight.
    */
  private[nn] final class Grads(inDim: Int, hidden: Int) {
    val w1 = new Array[Double](inDim * hidden) // input-major, as MLPClassifier's w1
    val b1 = new Array[Double](hidden)
    val w2 = new Array[Double](hidden)
    val b2 = new Array[Double](1)
    val h = new Array[Double](hidden)
    val dzr = new Array[Double](hidden) // dL/d(pre-activation) of each hidden unit
  }

  /** The mini-batch loop of Section 5.1 that both Figure-5 models train
    * with. Each epoch visits the `n` examples in a fresh shuffled order;
    * `step(i)` runs example i, accumulates its gradients and returns its
    * loss. After each batch Adam applies the batch-mean gradient. Returns
    * the mean loss of each epoch.
    */
  private[nn] def train(n: Int, epochs: Int, batchSize: Int, opt: Adam, l2: Double, seed: Long)(
      step: Int => Double): Seq[Double] = {
    require(batchSize > 0, s"batchSize must be positive, got $batchSize")
    val order = new Array[Int](n)
    val rng = new scala.util.Random(seed)
    val losses = new Array[Double](epochs)
    var epoch = 0
    while (epoch < epochs) {
      shuffledIndices(rng, order)
      var total = 0.0
      var start = 0
      while (start < n) {
        val end = math.min(start + batchSize, n)
        var j = start
        while (j < end) { total += step(order(j)); j += 1 }
        opt.step(l2, gradScale = 1.0 / (end - start))
        start = end
      }
      losses(epoch) = total / n
      epoch += 1
    }
    losses.toSeq
  }

  /** Fills `order` with a permutation of 0 until order.length, drawn with
    * exactly the `nextInt` calls of `rng.shuffle(0 until order.length)`
    * (Fisher–Yates from the top), so it yields the same permutation. So
    * `xs(order(j))` is `rng.shuffle(xs)(j)`, without a boxed element: the
    * epoch order of [[train]] and Figure 11's blocked-negative sample
    * (`BlockingExperiments.blockedTrainingSet`) are both drawn this way.
    */
  private[repro] def shuffledIndices(rng: scala.util.Random, order: Array[Int]): Unit = {
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
