package repro.nn

import java.lang.Double.{doubleToRawLongBits, longBitsToDouble}
import org.scalatest.funsuite.AnyFunSuite

/** `Linalg.tanh` is a port of fdlibm; it must return `StrictMath`'s bits. */
class TanhSpec extends AnyFunSuite {

  private def sameBits(got: Double, want: Double): Boolean =
    doubleToRawLongBits(got) == doubleToRawLongBits(want)

  private def checkTanh(x: Double): Unit = {
    val got = Linalg.tanh(x); val want = StrictMath.tanh(x)
    if (!sameBits(got, want)) fail(s"tanh($x) = $got, StrictMath gives $want")
  }

  private def checkExpm1(x: Double): Unit = {
    val got = Fdlibm.expm1(x); val want = StrictMath.expm1(x)
    if (!sameBits(got, want)) fail(s"expm1($x) = $got, StrictMath gives $want")
  }

  /** x, its neighbours, and the negatives of all three. */
  private def around(x: Double): Seq[Double] =
    Seq(x, Math.nextUp(x), Math.nextDown(x)).flatMap(v => Seq(v, -v))

  private val ln2 = math.log(2.0)
  // Where expm1 changes method: 0.5·ln2 and 1.5·ln2 (argument reduction),
  // 56·ln2 (exp(x)-1 suffices), 709.78 (overflow threshold), 2^-54 (tiny).
  private val expm1Branches = Seq(0.5 * ln2, 1.5 * ln2, 56 * ln2, 7.09782712893383973096e+02, math.pow(2, -54))
  // Where tanh changes method: 2^-55, 1 and 22; it calls expm1(±2x).
  private val tanhBranches = Seq(math.pow(2, -55), 1.0, 22.0) ++ expm1Branches.map(_ / 2) ++ expm1Branches

  test("special values") {
    val specials = Seq(0.0, -0.0, Double.MinPositiveValue, -Double.MinPositiveValue,
      longBitsToDouble(0x000fffffffffffffL), longBitsToDouble(0x0008000000000001L), java.lang.Double.MIN_NORMAL,
      Double.PositiveInfinity, Double.NegativeInfinity, Double.NaN, Double.MaxValue, -Double.MaxValue)
    specials.foreach { x => checkTanh(x); checkExpm1(x) }
    assert(Linalg.tanh(Double.PositiveInfinity) == 1.0 && Linalg.tanh(Double.NegativeInfinity) == -1.0)
    assert(Linalg.tanh(Double.NaN).isNaN)
  }

  test("branch points and their neighbours") {
    tanhBranches.flatMap(around).foreach(checkTanh)
    expm1Branches.flatMap(around).foreach(checkExpm1)
  }

  test("two million seeded random inputs across exponents") {
    val rng = new scala.util.Random(20180417)
    (1 to 1000000).foreach { _ =>
      // Exponents 2^-60 .. 2^6 cover every branch of tanh; a random
      // 52-bit mantissa and sign fill in the rest.
      val e = rng.nextInt(67) - 60
      val bits = ((e + 1023).toLong << 52) | (rng.nextLong() & 0x000fffffffffffffL)
      val x = longBitsToDouble(if (rng.nextBoolean()) bits else bits | Long.MinValue)
      checkTanh(x)
      checkExpm1(x * 16)
    }
    // Any bit pattern at all: subnormals, huge values, NaN payloads.
    (1 to 1000000).foreach(_ => checkTanh(longBitsToDouble(rng.nextLong())))
  }
}
