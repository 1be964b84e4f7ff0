package repro.nn

import org.scalatest.funsuite.AnyFunSuite

class NetworkSpec extends AnyFunSuite {

  /** Tiny world: 8 "real" tokens + UNK; matching pairs share tokens per
    * attribute, non-matching pairs use disjoint tokens.
    */
  private val V = 9
  private val dim = 6
  private def embTable(seed: Long) = NetworkSpec.gaussian(V, dim, 0.5, seed)
  private val unk = V - 1

  private def ex(aToks: Array[Array[Int]], bToks: Array[Array[Int]], y: Double) =
    PairExample(aToks, bToks, y)

  private def toyData(n: Int, seed: Long): IndexedSeq[PairExample] = {
    val rng = new scala.util.Random(seed)
    IndexedSeq.fill(n) {
      if (rng.nextBoolean()) {
        val t = Array(Array(0, 1), Array(2 + rng.nextInt(2)))
        ex(t, t.map(_.clone()), 1.0) // identical → match
      } else {
        ex(Array(Array(0, 1), Array(2)), Array(Array(4, 5), Array(6)), 0.0)
      }
    }
  }

  test("predictProb lies in (0, 1)") {
    val net = new DeepERNet(embTable(1), unk, 2, AvgComp)
    val p = net.predictProb(ex(Array(Array(0), Array(1)), Array(Array(2), Array(3)), 0.0))
    assert(p > 0.0 && p < 1.0)
  }

  test("avg composition: identical tuples get similarity vector of ones internally") {
    // Indirect check: identical tuples must score higher than disjoint ones
    // after training.
    val net = new DeepERNet(embTable(2), unk, 2, AvgComp, seed = 3)
    net.fit(toyData(120, 4), epochs = 15, seed = 5)
    val same = net.predictProb(ex(Array(Array(0, 1), Array(2)), Array(Array(0, 1), Array(2)), 1.0))
    val diff = net.predictProb(ex(Array(Array(0, 1), Array(2)), Array(Array(4, 5), Array(6)), 0.0))
    assert(same > 0.8, s"same=$same")
    assert(diff < 0.2, s"diff=$diff")
  }

  test("empty attribute embeds as UNK without crashing") {
    val net = new DeepERNet(embTable(3), unk, 2, AvgComp)
    val p = net.predictProb(ex(Array(Array.empty[Int], Array(1)), Array(Array(0), Array(1)), 0.0))
    assert(!p.isNaN)
  }

  for (comp <- Seq(AvgComp, BiLstmComp(4), Sent2VecComp); tune <- Seq(false, true)) {
    test(s"all-null tuples train and score without NaN ($comp, trainEmbeddings = $tune)") {
      val allNull = Array(Array.empty[Int], Array.empty[Int])
      val data = toyData(40, 21) ++ IndexedSeq(
        ex(allNull, allNull, 0.0),
        ex(allNull, Array(Array(0, 1), Array(2)), 0.0),
        ex(Array(Array(4, 5), Array(6)), allNull, 0.0))
      val net = new DeepERNet(embTable(22), unk, 2, comp, trainEmbeddings = tune, seed = 23)
      val losses = net.fit(data, epochs = 3, seed = 24)
      assert(losses.forall(l => !l.isNaN && !l.isInfinite), losses)
      assert(data.map(net.predictProb).forall(p => p >= 0.0 && p <= 1.0)) // false for NaN
      assert(!net.emb.data.exists(_.isNaN))
    }
  }

  test("fit reduces training loss (avg)") {
    val net = new DeepERNet(embTable(4), unk, 2, AvgComp, seed = 6)
    val losses = net.fit(toyData(100, 7), epochs = 10, seed = 8)
    assert(losses.last < losses.head)
  }

  test("fit reduces training loss (lstm)") {
    val net = new DeepERNet(embTable(5), unk, 2, BiLstmComp(4), seed = 9)
    val losses = net.fit(toyData(60, 10), epochs = 10, seed = 11)
    assert(losses.last < losses.head)
  }

  test("bilstm composition separates toy matches from non-matches") {
    val net = new DeepERNet(embTable(7), unk, 2, BiLstmComp(6), seed = 15)
    net.fit(toyData(120, 16), epochs = 25, seed = 17)
    val same = net.predictProb(ex(Array(Array(0, 1), Array(2)), Array(Array(0, 1), Array(2)), 1.0))
    val diff = net.predictProb(ex(Array(Array(0, 1), Array(2)), Array(Array(4, 5), Array(6)), 0.0))
    assert(same > diff)
  }

  test("sent2vec-like composition trains") {
    val net = new DeepERNet(embTable(8), unk, 2, Sent2VecComp, seed = 18)
    val losses = net.fit(toyData(80, 19), epochs = 10, seed = 20)
    assert(losses.last < losses.head)
  }

  test("simDim follows the composition") {
    assert(new DeepERNet(embTable(9), unk, 3, AvgComp).simDim == 3)
    assert(new DeepERNet(embTable(9), unk, 3, BiLstmComp(7)).simDim == 14)
    assert(new DeepERNet(embTable(9), unk, 3, Sent2VecComp).simDim == dim)
  }

  test("frozen embeddings are not modified by training") {
    val e = embTable(10)
    val before = e.data.clone()
    val net = new DeepERNet(e, unk, 2, AvgComp, trainEmbeddings = false, seed = 21)
    net.fit(toyData(60, 22), epochs = 5, seed = 23)
    assert(e.data.sameElements(before))
  }

  test("end-to-end tuning modifies the embedding table (Section 3.4)") {
    val e = embTable(11)
    val before = e.data.clone()
    val net = new DeepERNet(e, unk, 2, AvgComp, trainEmbeddings = true, seed = 24)
    net.fit(toyData(60, 25), epochs = 5, seed = 26)
    assert(!e.data.sameElements(before))
  }

  test("end-to-end tuning also works through the LSTM composer") {
    val e = embTable(12)
    val before = e.data.clone()
    val net = new DeepERNet(e, unk, 2, BiLstmComp(3), trainEmbeddings = true, seed = 27)
    net.fit(toyData(40, 28), epochs = 3, seed = 29)
    assert(!e.data.sameElements(before))
  }

  test("training is deterministic in seeds") {
    def run(): Seq[Double] = {
      val net = new DeepERNet(embTable(13), unk, 2, AvgComp, seed = 30)
      net.fit(toyData(50, 31), epochs = 3, seed = 32)
      toyData(10, 33).map(net.predictProb)
    }
    assert(run() == run())
  }

  /** Per-epoch losses and probe scores of a small network. The batch size
    * leaves a short last batch, so the batch-mean scaling is covered too.
    */
  private def lossesAndScores(comp: Composition, tune: Boolean): (Seq[Double], Seq[Double]) = {
    val net = new DeepERNet(embTable(15), unk, 2, comp, hidden = 5, trainEmbeddings = tune, seed = 35)
    val losses = net.fit(toyData(24, 36), epochs = 3, batchSize = 5, seed = 37)
    (losses, toyData(6, 38).map(net.predictProb))
  }

  // Recorded when DeepERNet still had its own dense layers and training
  // loop; sharing MLPClassifier's head and loop must not change a bit.
  private val pinned: Seq[(String, Composition, Boolean, Seq[Double], Seq[Double])] = Seq(
    ("avg, frozen", AvgComp, false,
      Seq(0.76224964589367, 0.709224705912845, 0.6643389684637749),
      Seq(0.5186293682954098, 0.46520018650116174, 0.5186293682954098,
        0.46520018650116174, 0.46520018650116174, 0.5186293682954098)),
    ("avg, tuned", AvgComp, true,
      Seq(0.7594690091029248, 0.7152721926074254, 0.6907066532661105),
      Seq(0.4839524790970402, 0.46756032803462916, 0.4839524790970402,
        0.46756032803462916, 0.46756032803462916, 0.4839524790970402)),
    ("bi-lstm, frozen", BiLstmComp(4), false,
      Seq(0.565743416509341, 0.4833737853886077, 0.41280449558219495),
      Seq(0.557402885855034, 0.16891427855881425, 0.557402885855034,
        0.16891427855881425, 0.16891427855881425, 0.557402885855034)),
    ("bi-lstm, tuned", BiLstmComp(4), true,
      Seq(0.5579405578219762, 0.4586471251362354, 0.3825021455019984),
      Seq(0.5667666190014583, 0.13849022547844747, 0.5667666190014583,
        0.13849022547844747, 0.13849022547844747, 0.5667666190014583)),
    ("sent2vec, tuned", Sent2VecComp, true,
      Seq(0.5745658904620999, 0.48904731929233985, 0.41911510055973983),
      Seq(0.5562810450372151, 0.1810875565726609, 0.5562810450372151,
        0.1810875565726609, 0.1810875565726609, 0.5562810450372151)),
  )

  for ((name, comp, tune, losses, scores) <- pinned)
    test(s"losses and scores are pinned bit for bit ($name)") {
      val (gotLosses, gotScores) = lossesAndScores(comp, tune)
      assert(gotLosses == losses)
      assert(gotScores == scores)
    }

  test("prediction is symmetric for avg composition (cosine is symmetric)") {
    val net = new DeepERNet(embTable(14), unk, 2, AvgComp, seed = 34)
    val a = Array(Array(0, 1), Array(2))
    val b = Array(Array(3, 4), Array(5))
    assert(math.abs(net.predictProb(ex(a, b, 0)) - net.predictProb(ex(b, a, 0))) < 1e-12)
  }
}

object NetworkSpec {

  /** Gaussian init with given std, deterministic in `seed`. */
  def gaussian(rows: Int, cols: Int, std: Double, seed: Long): Mat = {
    val rng = new scala.util.Random(seed)
    new Mat(rows, cols, Array.fill(rows * cols)(rng.nextGaussian() * std))
  }
}
