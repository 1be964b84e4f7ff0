package repro

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{DeepER, Similarity}
import repro.data.{Nucleotide, Translation}
import repro.embedding.{EmbeddingDict, Retrofit, SurfaceForm, SyntheticGlove}
import repro.nn.{Adam, Linalg}

/** Regression tests for behaviours added during experiment calibration:
  * train-fold threshold selection, GloVe-style shared UNK, form-level
  * dictionary coverage, no-decay Adam groups, degree-normalized
  * retrofitting, translation omission, informative negative sampling.
  */
class ThresholdSelectionSpec extends AnyFunSuite {
  test("bestThreshold finds the separating cut") {
    val probs = Seq(0.9, 0.8, 0.3, 0.2)
    val labels = Seq(1.0, 1.0, 0.0, 0.0)
    val t = DeepER.bestThreshold(probs, labels)
    assert(t > 0.3 && t <= 0.8)
    assert(repro.core.Evaluation.score(probs, labels, t).f1 == 1.0)
  }

  test("bestThreshold rescues an uncalibrated classifier (all probs below 0.5)") {
    val probs = Seq(0.4, 0.35, 0.1, 0.05)
    val labels = Seq(1.0, 1.0, 0.0, 0.0)
    val t = DeepER.bestThreshold(probs, labels)
    assert(repro.core.Evaluation.score(probs, labels, t).f1 == 1.0)
  }

  test("bestThreshold stays on the 0.05 grid") {
    val t = DeepER.bestThreshold(Seq(0.6, 0.1), Seq(1.0, 0.0))
    assert(math.abs(t / 0.05 - math.round(t / 0.05)) < 1e-9)
  }
}

class SharedUnkSpec extends AnyFunSuite {
  private val base = Map("w" -> Array(1.0, 0.0, 0.0))

  test("default UNK is the zero vector") {
    assert(EmbeddingDict(3, base).unk.forall(_ == 0.0))
  }

  test("shared UNK is a fixed unit vector") {
    val d = EmbeddingDict(3, base, sharedUnk = true)
    assert(math.abs(Linalg.norm(d.unk) - 1.0) < 1e-9)
    assert(d.unk.sameElements(EmbeddingDict(3, base, sharedUnk = true).unk))
  }

  test("two OOV words look identical under shared UNK (false-similarity mode)") {
    val d = EmbeddingDict(3, base, sharedUnk = true)
    assert(math.abs(Linalg.cosine(d.lookup("oov1"), d.lookup("oov2")) - 1.0) < 1e-9)
  }

  test("toTable writes the UNK vector into the UNK row") {
    val d = EmbeddingDict(3, base, sharedUnk = true)
    val (_, m, unkIdx) = d.toTable(Seq("w"))
    assert(m.row(unkIdx).sameElements(d.unk))
  }
}

class FormCoverageSpec extends AnyFunSuite {
  private val forms = (1 to 50).flatMap(i =>
    Seq(SurfaceForm(s"can$i", s"c$i", i), SurfaceForm(s"syn$i", s"c$i", i)))

  test("formCoverage prunes a fraction of surface forms") {
    val full = SyntheticGlove.build(forms, dim = 16, formCoverage = 1.0)
    val half = SyntheticGlove.build(forms, dim = 16, formCoverage = 0.5)
    assert(full.vectors.size == 100)
    assert(half.vectors.size < 85 && half.vectors.size > 15)
  }

  test("formCoverage is deterministic in the word and seed") {
    val a = SyntheticGlove.build(forms, dim = 16, formCoverage = 0.5)
    val b = SyntheticGlove.build(forms, dim = 16, formCoverage = 0.5)
    assert(a.vectors.keySet == b.vectors.keySet)
  }
}

class AdamDecaySpec extends AnyFunSuite {
  test("decay=false group keeps zero-gradient parameters untouched") {
    val decaying = Array(5.0); val gd = new Array[Double](1)
    val frozen = Array(5.0); val gf = new Array[Double](1)
    val opt = new Adam(lr = 0.1)
    opt.register(decaying, gd, 1.0, decay = true)
    opt.register(frozen, gf, 1.0, decay = false)
    (1 to 200).foreach(_ => opt.step(l2 = 0.1))
    assert(math.abs(decaying(0)) < 4.9, "decaying param should shrink")
    assert(frozen(0) == 5.0, "no-decay param must not move without gradient")
  }
}

class RetrofitNormalizationSpec extends AnyFunSuite {
  test("degree-normalized retrofit does not collapse a dense graph") {
    // Star-ish dense graph: every word connected to every other.
    val words = (1 to 6).map(i => s"w$i")
    val vecs = words.zipWithIndex.map { case (w, i) =>
      w -> Linalg.unit(Array.tabulate(8)(j => if (j == i) 1.0 else 0.05))
    }.toMap
    val dict = EmbeddingDict(8, vecs)
    val edges = words.map(w => w -> words.filterNot(_ == w)).toMap
    val d = Retrofit.retrofit(dict, edges, iters = 20)
    // Anchors must keep the words distinguishable (cosine < 0.995).
    val c = Linalg.cosine(d.lookup("w1"), d.lookup("w2"))
    assert(c < 0.995, s"over-smoothed: cosine $c")
  }
}

class TranslationOmissionSpec extends AnyFunSuite {
  test("salted variant choice differs across records for some tokens") {
    val diff = (0 until 50).count { p =>
      Translation.translateToken("word", p, 1L) != Translation.translateToken("word", p, 2L)
    }
    assert(diff > 5, s"only $diff positions differ across salts")
  }
}

class InformativeNegativeSpec extends AnyFunSuite {
  test("informative sampling prefers the most similar valid negative") {
    // One match (0,0) with high self-similarity; candidate negatives have
    // graded similarity; the sampler must prefer similar ones.
    val vA = Map(0L -> Array(Array(1.0, 0.0)))
    val vB = (0L to 20L).map { j =>
      val x = if (j == 0) Array(1.0, 0.0) else Array(math.max(0.0, 1.0 - j * 0.05), j * 0.05)
      j -> Array(x)
    }.toMap
    val (pairs, threshold) = DeepER.samplePairs(IndexedSeq((0L, 0L)), vA, vB, negRatio = 10, seed = 3)
    val negs = pairs.filter(_.label == 0.0)
    assert(negs.nonEmpty)
    // All sampled negatives sit below the threshold (min matched cosine)
    // or are fallback picks; mean similarity must be above a uniform draw.
    val sims = negs.map(p => Similarity.tupleCosine(vA.getOrElse(p.a, vB(p.a)), vB(p.b)))
    assert(threshold >= 0.999)
    assert(sims.forall(_ <= threshold + 1e-9))
  }
}

class KmerizeCountSpec extends AnyFunSuite {
  test("kmerize emits the expected number of windows") {
    val rng = new scala.util.Random(1)
    val s = Nucleotide.randomSeq(40, rng)
    assert(Nucleotide.kmerize(s).split(" ").length == (40 - 4) / 2 + 1)
  }
}
