package repro.nn

/** Minimal dense linear algebra for the from-scratch neural substrate.
  *
  * Everything is `Array[Double]`; matrices are row-major [[Mat]]. The
  * networks in this repo are small (d<=300, hidden<=150, batches of 16),
  * so clarity beats BLAS here. All randomness is seeded for determinism.
  */
object Linalg {

  /** Dot product of two equal-length vectors. */
  def dot(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length, s"dot: ${a.length} vs ${b.length}")
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }

  /** Euclidean norm. */
  def norm(a: Array[Double]): Double = math.sqrt(dot(a, a))

  /** Cosine similarity; 0.0 when either vector is all-zero. */
  def cosine(a: Array[Double], b: Array[Double]): Double = {
    val na = norm(a); val nb = norm(b)
    if (na == 0.0 || nb == 0.0) 0.0 else dot(a, b) / (na * nb)
  }

  /** a + b, new array. */
  def add(a: Array[Double], b: Array[Double]): Array[Double] = {
    require(a.length == b.length)
    Array.tabulate(a.length)(i => a(i) + b(i))
  }

  /** a - b, new array. */
  def sub(a: Array[Double], b: Array[Double]): Array[Double] = {
    require(a.length == b.length)
    Array.tabulate(a.length)(i => a(i) - b(i))
  }

  /** Element-wise (Hadamard) product, new array. */
  def hadamard(a: Array[Double], b: Array[Double]): Array[Double] = {
    require(a.length == b.length)
    Array.tabulate(a.length)(i => a(i) * b(i))
  }

  /** a * s, new array. */
  def scale(a: Array[Double], s: Double): Array[Double] =
    Array.tabulate(a.length)(i => a(i) * s)

  /** In-place a += b * s. */
  def axpy(a: Array[Double], b: Array[Double], s: Double): Unit = {
    require(a.length == b.length)
    var i = 0
    while (i < a.length) { a(i) += b(i) * s; i += 1 }
  }

  /** Element-wise mean of a non-empty collection of equal-length vectors. */
  def mean(vs: Seq[Array[Double]]): Array[Double] = {
    require(vs.nonEmpty, "mean of empty sequence")
    val out = new Array[Double](vs.head.length)
    vs.foreach(v => axpy(out, v, 1.0))
    scale(out, 1.0 / vs.size)
  }

  def sigmoid(x: Double): Double =
    if (x >= 0) 1.0 / (1.0 + math.exp(-x))
    else { val e = math.exp(x); e / (1.0 + e) }

  /** Hyperbolic tangent, bit-identical to `StrictMath.tanh`: a pure-Scala
    * port of fdlibm's `s_tanh.c` (see [[Fdlibm]]). On JDK 17 `math.tanh`
    * is a JNI call into the same C code, which costs more than the
    * arithmetic; this port gives the same bits without the native call.
    */
  def tanh(x: Double): Double = Fdlibm.tanh(x)

  /** Normalize to unit length (zero vector stays zero). */
  def unit(a: Array[Double]): Array[Double] = {
    val n = norm(a)
    if (n == 0.0) a.clone() else scale(a, 1.0 / n)
  }
}

/** Row-major dense matrix with seeded initializers. */
final class Mat(val rows: Int, val cols: Int, val data: Array[Double]) extends Serializable {
  require(data.length == rows * cols, s"Mat ${rows}x$cols needs ${rows * cols} values, got ${data.length}")

  def apply(r: Int, c: Int): Double = data(r * cols + c)
  def update(r: Int, c: Int, v: Double): Unit = data(r * cols + c) = v

  /** y = A x */
  def matvec(x: Array[Double]): Array[Double] = {
    require(x.length == cols, s"matvec: ${rows}x$cols * ${x.length}")
    val y = new Array[Double](rows)
    var r = 0
    while (r < rows) {
      var s = 0.0; var c = 0; val off = r * cols
      while (c < cols) { s += data(off + c) * x(c); c += 1 }
      y(r) = s; r += 1
    }
    y
  }

  /** y = A^T x (no explicit transpose materialized). */
  def tmatvec(x: Array[Double]): Array[Double] = {
    require(x.length == rows, s"tmatvec: (${rows}x$cols)^T * ${x.length}")
    val y = new Array[Double](cols)
    var r = 0
    while (r < rows) {
      val xr = x(r); val off = r * cols; var c = 0
      while (c < cols) { y(c) += data(off + c) * xr; c += 1 }
      r += 1
    }
    y
  }

  /** In-place rank-1 update: A += u v^T (u has `rows` entries, v `cols`). */
  def addOuter(u: Array[Double], v: Array[Double]): Unit = {
    require(u.length == rows && v.length == cols)
    var r = 0
    while (r < rows) {
      val ur = u(r); val off = r * cols; var c = 0
      while (c < cols) { data(off + c) += ur * v(c); c += 1 }
      r += 1
    }
  }

  def row(r: Int): Array[Double] = java.util.Arrays.copyOfRange(data, r * cols, (r + 1) * cols)

  def setRow(r: Int, v: Array[Double]): Unit = {
    require(v.length == cols); System.arraycopy(v, 0, data, r * cols, cols)
  }

  def copy(): Mat = new Mat(rows, cols, data.clone())
}

object Mat {
  def zeros(rows: Int, cols: Int): Mat = new Mat(rows, cols, new Array[Double](rows * cols))

  /** Xavier/Glorot uniform init, deterministic in `seed`. */
  def glorot(rows: Int, cols: Int, seed: Long): Mat = {
    val rng = new scala.util.Random(seed)
    val lim = math.sqrt(6.0 / (rows + cols))
    new Mat(rows, cols, Array.fill(rows * cols)((rng.nextDouble() * 2 - 1) * lim))
  }

  /** Gaussian init with given std, deterministic in `seed`. */
  def gaussian(rows: Int, cols: Int, std: Double, seed: Long): Mat = {
    val rng = new scala.util.Random(seed)
    new Mat(rows, cols, Array.fill(rows * cols)(rng.nextGaussian() * std))
  }
}

/* Port of fdlibm 5.3 `s_tanh.c` and `s_expm1.c`.
 *
 * ====================================================
 * Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
 *
 * Developed at SunSoft, a Sun Microsystems, Inc. business.
 * Permission to use, copy, modify, and distribute this
 * software is freely granted, provided that this notice
 * is preserved.
 * ====================================================
 *
 * Every operation is kept in fdlibm's order, so results match
 * `StrictMath.tanh` / `StrictMath.expm1` bit for bit.
 */
private[nn] object Fdlibm {
  private val Huge = 1.0e+300
  private val Tiny = 1.0e-300
  private val OThreshold = 7.09782712893383973096e+02 // 0x40862E42, 0xFEFA39EF
  private val Ln2Hi = 6.93147180369123816490e-01      // 0x3fe62e42, 0xfee00000
  private val Ln2Lo = 1.90821492927058770002e-10      // 0x3dea39ef, 0x35793c76
  private val InvLn2 = 1.44269504088896338700e+00     // 0x3ff71547, 0x652b82fe
  // Scaled coefficients of the expm1 rational approximation.
  private val Q1 = -3.33333333333331316428e-02 // BFA11111 111110F4
  private val Q2 = 1.58730158725481460165e-03  // 3F5A01A0 19FE5585
  private val Q3 = -7.93650757867487942473e-05 // BF14CE19 9EAADBB7
  private val Q4 = 4.00821782732936239552e-06  // 3ED0CFCA 86E65239
  private val Q5 = -2.01099218183624371326e-07 // BE8AFDB7 6E09C32D

  private def hi(x: Double): Int = (java.lang.Double.doubleToRawLongBits(x) >>> 32).toInt
  private def lo(x: Double): Int = java.lang.Double.doubleToRawLongBits(x).toInt
  private def withHi(x: Double, h: Int): Double =
    java.lang.Double.longBitsToDouble((h.toLong << 32) | (java.lang.Double.doubleToRawLongBits(x) & 0xffffffffL))

  /* tanh(x) = (e^x - e^-x) / (e^x + e^-x), reduced to x >= 0 by oddness:
   *   0      <= x <= 2**-55 : x*(1+x)
   *   2**-55 <  x <  1      : -t/(t+2),    t = expm1(-2x)
   *   1      <= x <  22     : 1 - 2/(t+2), t = expm1(2x)
   *   22     <= x <= INF    : 1
   * tanh(NaN) is NaN.
   */
  def tanh(x: Double): Double = {
    val jx = hi(x)
    val ix = jx & 0x7fffffff
    if (ix >= 0x7ff00000) { // Inf or NaN
      if (jx >= 0) 1.0 / x + 1.0 else 1.0 / x - 1.0
    } else {
      val z =
        if (ix < 0x40360000) { // |x| < 22
          if (ix < 0x3c800000) return x * (1.0 + x) // |x| < 2**-55
          if (ix >= 0x3ff00000) { // |x| >= 1
            val t = expm1(2.0 * math.abs(x))
            1.0 - 2.0 / (t + 2.0)
          } else {
            val t = expm1(-2.0 * math.abs(x))
            -t / (t + 2.0)
          }
        } else 1.0 - Tiny // |x| >= 22: +-1, inexact
      if (jx >= 0) z else -z
    }
  }

  /* expm1(x) = e^x - 1. Reduce x = k*ln2 + r with |r| <= 0.5*ln2, approximate
   * expm1(r) by a rational function in r*r/2, then scale back by 2^k.
   */
  def expm1(x0: Double): Double = {
    var x = x0
    var hx = hi(x)
    val xsb = hx & 0x80000000 // sign bit of x
    hx &= 0x7fffffff          // high word of |x|

    // Huge and non-finite arguments.
    if (hx >= 0x4043687A) { // |x| >= 56*ln2
      if (hx >= 0x40862E42) { // |x| >= 709.78...
        if (hx >= 0x7ff00000) {
          if (((hx & 0xfffff) | lo(x)) != 0) return x + x // NaN
          else return if (xsb == 0) x else -1.0           // expm1(+-inf) = {inf, -1}
        }
        if (x > OThreshold) return Huge * Huge // overflow
      }
      if (xsb != 0) { // x < -56*ln2: -1 with inexact
        if (x + Tiny < 0.0) return Tiny - 1.0
      }
    }

    // Argument reduction.
    var c = 0.0
    var k = 0
    if (hx > 0x3fd62e42) { // |x| > 0.5*ln2
      var hi0 = 0.0
      var lo0 = 0.0
      if (hx < 0x3FF0A2B2) { // and |x| < 1.5*ln2
        if (xsb == 0) { hi0 = x - Ln2Hi; lo0 = Ln2Lo; k = 1 }
        else { hi0 = x + Ln2Hi; lo0 = -Ln2Lo; k = -1 }
      } else {
        k = (InvLn2 * x + (if (xsb == 0) 0.5 else -0.5)).toInt
        val t = k.toDouble
        hi0 = x - t * Ln2Hi // t*Ln2Hi is exact here
        lo0 = t * Ln2Lo
      }
      x = hi0 - lo0
      c = (hi0 - x) - lo0
    } else if (hx < 0x3c900000) { // |x| < 2**-54: x, inexact when x != 0
      val t = Huge + x
      return x - (t - (Huge + x))
    }

    // x is now in the primary range.
    val hfx = 0.5 * x
    val hxs = x * hfx
    val r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))))
    val t = 3.0 - r1 * hfx
    var e = hxs * ((r1 - t) / (6.0 - x * t))
    if (k == 0) return x - (x * e - hxs) // c is 0
    e = x * (e - c) - c
    e -= hxs
    if (k == -1) return 0.5 * (x - e) - 0.5
    if (k == 1) {
      if (x < -0.25) return -2.0 * (e - (x + 0.5))
      else return 1.0 + 2.0 * (x - e)
    }
    if (k <= -2 || k > 56) { // exp(x)-1 suffices
      val y = 1.0 - (e - x)
      return withHi(y, hi(y) + (k << 20)) - 1.0
    }
    if (k < 20) {
      val t1 = withHi(1.0, 0x3ff00000 - (0x200000 >> k)) // 1 - 2^-k
      val y = t1 - (e - x)
      withHi(y, hi(y) + (k << 20))
    } else {
      val t1 = withHi(1.0, (0x3ff - k) << 20) // 2^-k
      var y = x - (e + t1)
      y += 1.0
      withHi(y, hi(y) + (k << 20))
    }
  }
}
