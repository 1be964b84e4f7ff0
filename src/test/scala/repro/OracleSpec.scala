package repro

class OracleSpec extends SparkSpec {

  test("assertEquivalent loads a frame whose columns are named table and a\"b") {
    val s = spark
    import s.implicits._
    val df = Seq((1L, 0, "x"), (2L, 3, "y")).toDF("idA", "table", "a\"b")
    Oracle.assertEquivalent(df, "SELECT idA, \"table\", \"a\"\"b\" FROM t", "t" -> df)
  }

  test("assertEquivalent orders rows by their cells, whatever order each side returns them in") {
    val s = spark
    import s.implicits._
    // A single partition keeps the collect order: (1, 23) first on the Spark side.
    val df = Seq((1L, 23L), (12L, 3L)).toDF("idA", "idB").coalesce(1)
    Oracle.assertEquivalent(df, "SELECT idA, idB FROM t ORDER BY CAST(idA AS BIGINT) DESC", "t" -> df)
    // Cells joined with any separator collide when a cell holds it: here U+0001.
    val sep = Seq(("a\u0001b", "c"), ("a", "b\u0001c")).toDF("x", "y").coalesce(1)
    Oracle.assertEquivalent(sep, "SELECT x, y FROM t ORDER BY length(x) ASC", "t" -> sep)
  }
}
