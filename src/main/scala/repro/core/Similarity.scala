package repro.core

import repro.nn.Linalg

/** Distributional similarity between tuple DRs (Section 2.3). */
object Similarity {

  /** Averaging DRs: cosine per aligned attribute → m-dim similarity vector. */
  def cosineVector(va: Array[Array[Double]], vb: Array[Array[Double]]): Array[Double] = {
    require(va.length == vb.length, s"attribute count mismatch: ${va.length} vs ${vb.length}")
    Array.tabulate(va.length)(k => Linalg.cosine(va(k), vb(k)))
  }

  /** Whole-tuple cosine over concatenated DRs — the similarity used for
    * the paper's negative-sampling threshold (Section 5.1).
    */
  def tupleCosine(va: Array[Array[Double]], vb: Array[Array[Double]]): Double =
    tupleCosine(va, tupleNorm(va), vb, tupleNorm(vb))

  /** [[tupleCosine]] with the whole-tuple norms already computed. Equals
    * `Linalg.cosine(va.flatten, vb.flatten)` bit for bit: the sums run in
    * concatenation order, without building the flattened arrays.
    */
  def tupleCosine(va: Array[Array[Double]], na: Double, vb: Array[Array[Double]], nb: Double): Double =
    if (na == 0.0 || nb == 0.0) 0.0 else tupleDot(va, vb) / (na * nb)

  /** Euclidean norm of the concatenated DR. */
  def tupleNorm(v: Array[Array[Double]]): Double = math.sqrt(tupleDot(v, v))

  /** Dot product of two concatenated DRs, summed in concatenation order. */
  private def tupleDot(va: Array[Array[Double]], vb: Array[Array[Double]]): Double = {
    require(va.length == vb.length, s"attribute count mismatch: ${va.length} vs ${vb.length}")
    var s = 0.0; var k = 0
    while (k < va.length) {
      val a = va(k); val b = vb(k)
      require(a.length == b.length, s"attribute $k: ${a.length} vs ${b.length} dimensions")
      var i = 0
      while (i < a.length) { s += a(i) * b(i); i += 1 }
      k += 1
    }
    s
  }
}
