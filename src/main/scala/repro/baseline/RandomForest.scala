package repro.baseline

/** From-scratch CART decision tree + random forest (gini impurity,
  * feature subsampling, balanced bootstrap) — the classifier behind the
  * Magellan-style baseline. Magellan's default matcher is a random
  * forest; this is a faithful small-scale equivalent.
  */
object RandomForest {

  sealed trait Node extends Serializable
  final case class Leaf(posProb: Double) extends Node
  final case class Split(feature: Int, threshold: Double, left: Node, right: Node) extends Node

  final case class Tree(root: Node) extends Serializable {
    def predict(x: Array[Double]): Double = {
      @annotation.tailrec
      def go(n: Node): Double = n match {
        case Leaf(p)                 => p
        case Split(f, t, l, r)       => if (x(f) <= t) go(l) else go(r)
      }
      go(root)
    }
  }

  final case class Forest(trees: Seq[Tree]) extends Serializable {
    /** Mean of per-tree positive probabilities. */
    def predictProb(x: Array[Double]): Double = trees.map(_.predict(x)).sum / trees.size
  }

  /** The fewest bootstrap rows either side of a split may hold. */
  private final val MinLeaf = 2

  private def gini(pos: Int, n: Int): Double = {
    if (n == 0) 0.0
    else {
      val p = pos.toDouble / n
      2 * p * (1 - p)
    }
  }

  private def buildTree(
      xs: IndexedSeq[Array[Double]],
      ys: IndexedSeq[Double],
      idx: Array[Int],
      depth: Int,
      maxDepth: Int,
      nFeatSample: Int,
      rng: scala.util.Random,
  ): Node = {
    val nPos = idx.count(ys(_) >= 0.5)
    if (depth >= maxDepth || idx.length < 2 * MinLeaf || nPos == 0 || nPos == idx.length)
      return Leaf(if (idx.isEmpty) 0.0 else nPos.toDouble / idx.length)

    val nFeat = xs.head.length
    val feats = rng.shuffle((0 until nFeat).toIndexedSeq).take(nFeatSample)
    var best: Option[(Int, Double, Double)] = None // feature, threshold, impurity
    val parentImp = gini(nPos, idx.length)
    feats.foreach { f =>
      val sorted = idx.sortBy(xs(_)(f))
      var leftPos = 0
      var i = 0
      while (i < sorted.length - 1) {
        if (ys(sorted(i)) >= 0.5) leftPos += 1
        val nl = i + 1
        val nr = sorted.length - nl
        val v = xs(sorted(i))(f); val vNext = xs(sorted(i + 1))(f)
        if (v != vNext && nl >= MinLeaf && nr >= MinLeaf) {
          val imp = (nl * gini(leftPos, nl) + nr * gini(nPos - leftPos, nr)) / sorted.length
          if (imp < parentImp - 1e-12 && best.forall(imp < _._3))
            best = Some((f, (v + vNext) / 2, imp))
        }
        i += 1
      }
    }
    best match {
      case None => Leaf(nPos.toDouble / idx.length)
      case Some((f, t, _)) =>
        val (l, r) = idx.partition(xs(_)(f) <= t)
        Split(f, t,
          buildTree(xs, ys, l, depth + 1, maxDepth, nFeatSample, rng),
          buildTree(xs, ys, r, depth + 1, maxDepth, nFeatSample, rng))
    }
  }

  /** Fit a forest. Each tree sees a *balanced* bootstrap (all positives +
    * an equal-size negative sample): ER training data is heavily
    * imbalanced (1:100 in Table 4's protocol) and unweighted trees would
    * collapse to the majority class.
    */
  def fit(
      xs: IndexedSeq[Array[Double]],
      ys: IndexedSeq[Double],
      nTrees: Int = 20,
      maxDepth: Int = 10,
      negPerPos: Int = 3,
      seed: Long = 31,
  ): Forest = {
    require(xs.nonEmpty && xs.length == ys.length)
    val rng = new scala.util.Random(seed)
    // Degenerate single-class inputs fall back to plain bootstrap.
    val pos0 = ys.indices.filter(ys(_) >= 0.5).toArray
    val neg0 = ys.indices.filter(ys(_) < 0.5).toArray
    val pos = if (pos0.nonEmpty) pos0 else ys.indices.toArray
    val neg = if (neg0.nonEmpty) neg0 else ys.indices.toArray
    val nFeatSample = math.max(1, math.ceil(math.sqrt(xs.head.length)).toInt)
    val trees = (1 to nTrees).map { _ =>
      val bootPos = Array.fill(pos.length)(pos(rng.nextInt(pos.length)))
      val nNeg = math.min(neg.length, math.max(1, bootPos.length * negPerPos))
      val bootNeg = Array.fill(nNeg)(neg(rng.nextInt(neg.length)))
      Tree(buildTree(xs, ys, bootPos ++ bootNeg, 0, maxDepth, nFeatSample, rng))
    }
    Forest(trees)
  }
}
