package repro.perfbench

import repro.core.Remp

/** Output checks. Each returns the names of the checks that failed. */
object Checks {
  /** The bench floor on per-profile F1 used by the table suites. */
  val F1Floor = 0.5

  def prepared(p: Remp.Prepared): Seq[String] = {
    val candidates = p.candidates.select("id1", "id2").collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    val retained = p.priors.keySet
    Seq(
      "retained ⊆ candidates" -> retained.subsetOf(candidates),
      "inferred(q) ∋ q" -> p.inferred.forall { case (q, ps) => ps.exists(_._1 == q) },
      "inferred sources ⊆ connected" -> p.inferred.keySet.subsetOf(p.connected),
      "connected ∪ isolated = retained" -> (p.connected ++ p.isolated == retained)
    ).collect { case (name, false) => name }
  }

  def session(p: Remp.Prepared, s: Session): Seq[String] = Seq(
    "matches ⊆ retained" -> s.result.matches.subsetOf(p.priors.keySet),
    "μ=1: questions = loops" -> (s.mu != 1 || s.result.questions == s.result.loops),
    s"F1 > $F1Floor" -> (s.result.prf.f1 > F1Floor),
    "dispatches = questions" -> (s.dispatches == s.result.questions)
  ).collect { case (name, false) => s"${name} (μ=${s.mu}, session ${s.index})" }
}
