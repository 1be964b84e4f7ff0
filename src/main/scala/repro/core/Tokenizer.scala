package repro.core

/** The "standard tokenizer" of Algorithms 1–2: lowercase, split on
  * whitespace. Trailing dots are kept because abbreviation forms
  * ("proc.") are dictionary entries of their own; NULL values tokenize to
  * the empty sequence (they embed as UNK downstream, per Section 2.3).
  */
object Tokenizer {
  def tokenize(s: String): Seq[String] =
    if (s == null || s.isEmpty) Seq.empty
    else s.toLowerCase.split("\\s+").filter(_.nonEmpty).toSeq
}
