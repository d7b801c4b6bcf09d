package repro.perfbench

/** One benchmark workload: a generator profile and seed, whether its one prepare
  * happens during set-up (crowd workloads) or is the first measured
  * operation (prepare workloads), and the crowd sessions of one batch:
  * `mu10` sessions with μ=10 and `mu1` with μ=1, each with its own crowd.
  * Batches repeat until the measuring window closes. Round latency comes
  * from the μ=1 sessions; a workload without them (every `iimb` session
  * ends after one round) takes each μ=10 session's one round instead.
  * `kbSeed` is the generator seed; the run's seed drives only the crowds.
  */
final case class Workload(
    name: String,
    profile: String,
    scale: Double,
    kbSeed: Long,
    prepareInSetup: Boolean,
    mu10: Int,
    mu1: Int)

object Workload {
  val All: Seq[Workload] = Seq(
    // Each workload uses one KB pair, the profile's default (seed 7), as in
    // the table suites, and the run's seed varies only the crowds: across
    // generator seeds the μ=10 session time alone spread by a quarter of its
    // median on `da`.
    Workload("prepare-dense", "iimb", 1.0, 7L, prepareInSetup = false, mu10 = 4, mu1 = 0),
    Workload("crowd-sessions", "da", 1.0, 7L, prepareInSetup = true, mu10 = 4, mu1 = 2))

  def byName(name: String): Option[Workload] = All.find(_.name == name)
}
