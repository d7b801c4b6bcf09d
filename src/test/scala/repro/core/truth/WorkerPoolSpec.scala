package repro.core.truth

import repro.PropSpec

class WorkerPoolSpec extends PropSpec {
  import WorkerPool._

  // --- Eq. 17 posterior ---
  test("unanimous positive labels raise the posterior") {
    val p = posterior(0.5, Seq(true, true, true), Seq(0.9, 0.9, 0.9))
    assert(p > 0.99)
  }
  test("unanimous negative labels lower the posterior") {
    val p = posterior(0.5, Seq(false, false, false), Seq(0.9, 0.9, 0.9))
    assert(p < 0.01)
  }
  test("uninformative workers (λ=0.5) keep the prior") {
    val p = posterior(0.3, Seq(true, false, true), Seq(0.5, 0.5, 0.5))
    assert(math.abs(p - 0.3) < 1e-9)
  }
  test("no labels keep the prior") {
    assert(math.abs(posterior(0.7, Seq.empty, Seq.empty) - 0.7) < 1e-9)
  }
  test("split vote with equal qualities keeps the prior") {
    val p = posterior(0.4, Seq(true, false), Seq(0.8, 0.8))
    assert(math.abs(p - 0.4) < 1e-9)
  }
  test("one reliable worker beats two coin flippers") {
    val p = posterior(0.5, Seq(true, false, false), Seq(0.99, 0.55, 0.55))
    assert(p > 0.5)
  }
  test("closed form for a single worker") {
    // P = prior·λ / (prior·λ + (1-prior)(1-λ))
    val prior = 0.4
    val lam = 0.9
    val expected = prior * lam / (prior * lam + (1 - prior) * (1 - lam))
    assert(math.abs(posterior(prior, Seq(true), Seq(lam)) - expected) < 1e-9)
  }
  test("posterior is monotone in the prior") {
    forSeeds() { rnd =>
      val labels = Seq.fill(3)(rnd.nextBoolean())
      val quals = Seq.fill(3)(0.55 + 0.4 * rnd.nextDouble())
      val p1 = posterior(0.3, labels, quals)
      val p2 = posterior(0.6, labels, quals)
      assert(p2 >= p1 - 1e-12)
    }
  }
  test("posterior stays in [0,1]") {
    forSeeds() { rnd =>
      val labels = Seq.fill(5)(rnd.nextBoolean())
      val quals = Seq.fill(5)(rnd.nextDouble())
      val p = posterior(rnd.nextDouble(), labels, quals)
      assert(p >= 0.0 && p <= 1.0)
    }
  }
  test("extreme priors are clamped, not NaN") {
    assert(!posterior(1.0, Seq(false), Seq(0.9)).isNaN)
    assert(!posterior(0.0, Seq(true), Seq(0.9)).isNaN)
  }

  // --- verdict thresholds ---
  test("verdict thresholds at 0.8 / 0.2") {
    assert(verdict(0.85) == IsMatch)
    assert(verdict(0.8) == IsMatch)
    assert(verdict(0.15) == IsNonMatch)
    assert(verdict(0.2) == IsNonMatch)
    assert(verdict(0.5) == Unresolved(0.5))
  }

  // --- simulated pools ---
  test("fixed-error pool labels mostly correctly at low error") {
    val pool = WorkerPool.fixedError(0.05, seed = 1)
    val correct = (1 to 200).count { _ =>
      val (labels, _) = pool.labelFor((1L, 2L), truth = true)
      labels.count(identity) > labels.size / 2
    }
    assert(correct > 190)
  }
  test("oracle pool is always right") {
    val pool = WorkerPool.oracle()
    (1 to 50).foreach { _ =>
      val (labels, quals) = pool.labelFor((1L, 2L), truth = true)
      assert(labels == IndexedSeq(true))
      assert(posterior(0.5, labels, quals) > 0.999)
    }
  }
  test("pool is deterministic in its seed") {
    def run(seed: Long) = {
      val p = WorkerPool.fixedError(0.25, seed = seed)
      (1 to 20).map(_ => p.labelFor((1L, 2L), truth = true)._1)
    }
    assert(run(5L) == run(5L))
    assert(run(5L) != run(6L)) // overwhelmingly likely at error 0.25
  }
  test("difficulty shrinks effective accuracy towards a coin flip") {
    def wrongRate(d: Double): Double = {
      val p = WorkerPool.fixedError(0.05, seed = 3)
        .withDifficulty(_ => d, seed = 3)
      (1 to 400).map(_ => p.labelFor((1L, 2L), truth = true)._1.count(!_)).sum / (400.0 * 5)
    }
    assert(wrongRate(0.0) < 0.1)
    val atHard = wrongRate(0.8)
    assert(atHard > 0.3 && atHard < 0.55, s"$atHard")
  }
  test("difficulty 1 is a pure coin flip") {
    val p = WorkerPool.fixedError(0.0, seed = 5).withDifficulty(_ => 1.0, seed = 5)
    val wrong = (1 to 400).map(_ => p.labelFor((1L, 2L), truth = true)._1.count(!_)).sum
    assert(wrong > 700 && wrong < 1300) // ~1000 of 2000
  }
  test("labelFor reports nominal qualities, not effective ones") {
    val p = WorkerPool.fixedError(0.05, seed = 7).withDifficulty(_ => 0.9, seed = 7)
    val (_, quals) = p.labelFor((1L, 2L), truth = true)
    quals.foreach(q => assert(q == 0.95))
  }
  test("labelFor with zero difficulty behaves like label") {
    val p = WorkerPool.fixedError(0.25, seed = 9)
    val wrongs = (1 to 300).map(_ => p.labelFor((1L, 2L), truth = true)._1.count(!_)).sum
    assert(math.abs(wrongs / 1500.0 - 0.25) < 0.05)
  }
  test("high error rate flips labels more often") {
    def flips(err: Double) = {
      val p = WorkerPool.fixedError(err, seed = 2)
      (1 to 300).map(_ => p.labelFor((1L, 2L), truth = true)._1.count(!_)).sum
    }
    assert(flips(0.25) > flips(0.05))
  }
}
