package repro.core

import org.scalatest.funsuite.AnyFunSuite

class RempConfigSpec extends AnyFunSuite {

  test("the default Config and the boundary values are accepted") {
    Remp.Config()
    Remp.Config(tau = 1.0, mu = 1, k = 1, maxLoops = 0)
  }
  test("tau = 0 is rejected") {
    intercept[IllegalArgumentException](Remp.Config(tau = 0.0))
  }
  test("tau above 1 is rejected") {
    intercept[IllegalArgumentException](Remp.Config(tau = 1.5))
  }
  test("mu = 0 is rejected") {
    intercept[IllegalArgumentException](Remp.Config(mu = 0))
  }
  test("k = 0 is rejected") {
    intercept[IllegalArgumentException](Remp.Config(k = 0))
  }
  test("a negative maxLoops is rejected") {
    intercept[IllegalArgumentException](Remp.Config(maxLoops = -1))
  }
}
