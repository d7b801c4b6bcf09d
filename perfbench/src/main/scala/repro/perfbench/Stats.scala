package repro.perfbench

/** The benchmark's arithmetic, kept free of Spark so it can be unit-tested. */
object Stats {

  /** The q-quantile (0 ≤ q ≤ 1) by linear interpolation between order
    * statistics, the "inclusive" method of Python's `statistics.quantiles`.
    */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    require(q >= 0 && q <= 1, s"quantile $q outside [0, 1]")
    val s = xs.sorted
    val pos = q * (s.size - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  def mean(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "mean of no samples")
    xs.sum / xs.size
  }

  /** The highest of `percentiles` that leaves at least `beyond` samples
    * above it in `n` samples, if any does.
    */
  def tailPercentile(n: Int, percentiles: Seq[Double] = Seq(99.9, 99.0, 90.0, 50.0),
                     beyond: Int = 10): Option[Double] =
    percentiles.sorted.reverse.find(p => n * (1.0 - p / 100.0) >= beyond - 1e-9)

  /** Round latencies (ms) of one μ=1 crowd session. Every question dispatch
    * starts one round, so a round is the gap between two dispatches.
    */
  def roundGapsMs(dispatchNs: Seq[Long]): Seq[Double] =
    dispatchNs.sliding(2).collect { case Seq(a, b) => (b - a) / 1e6 }.toSeq

  /** Share of the cores' capacity that tasks kept busy during a span. */
  def busyRatio(taskRunMs: Long, wallS: Double, cores: Int): Double =
    if (wallS <= 0 || cores <= 0) 0.0 else taskRunMs / 1000.0 / (wallS * cores)

  /** A span's self time (s): its duration minus the part of it that its
    * children's intervals cover (overlapping children are counted once).
    */
  def selfTimeS(startNs: Long, endNs: Long, children: Seq[(Long, Long)]): Double = {
    val clipped = children
      .map { case (s, e) => (math.max(s, startNs), math.min(e, endNs)) }
      .filter { case (s, e) => e > s }
      .sortBy(_._1)
    var covered = 0L
    var curS = Long.MinValue
    var curE = Long.MinValue
    for ((s, e) <- clipped) {
      if (s > curE) {
        if (curE > curS) covered += curE - curS
        curS = s; curE = e
      } else curE = math.max(curE, e)
    }
    if (curE > curS) covered += curE - curS
    (endNs - startNs - covered) / 1e9
  }
}
