package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite

import scala.io.Source
import scala.util.Using

class CoresSpec extends AnyFunSuite {

  private def allowedCpus: String =
    Using.resource(Source.fromFile("/proc/thread-self/status"))(_.getLines()
      .collectFirst { case l if l.startsWith("Cpus_allowed_list:") => l.split(':')(1).trim }
      .getOrElse(""))

  test("pins the thread that made it to each core in turn, then frees it") {
    val n = Runtime.getRuntime.availableProcessors
    val cores = new Cores(n)
    assume(cores.rotating, "needs taskset and more than one core")
    val seen = (0 to n).map { _ => cores.advance(); allowedCpus }
    assert(seen == ((0 until n) :+ 0).map(_.toString))
    cores.release()
    assert(allowedCpus == s"0-${n - 1}")
  }

  test("does not rotate over a single core") {
    val cores = new Cores(1)
    assert(!cores.rotating)
    cores.advance()
    cores.release()
  }
}
