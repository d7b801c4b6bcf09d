package repro.perfbench

import java.lang.ProcessBuilder.Redirect
import java.nio.file.{Files, Paths}

/** Moves the calling thread from core to core between crowd sessions.
  *
  * On a shared host one vCPU can run a fifth to a half slower than the others
  * for tens of seconds, while the others keep their speed. A single-threaded
  * session loop that stays on that vCPU reads the whole run as slow. Pinned
  * to each core in turn, it spreads its sessions evenly over the cores, so one
  * slow core slows a share of the sessions, not the run's median. The pinning
  * uses `taskset` (util-linux) on the thread's own id; where that is missing,
  * the thread stays where the scheduler puts it and `rotating` is false.
  */
final class Cores(count: Int) {
  private val threadId: Option[String] =
    try Some(Files.readSymbolicLink(Paths.get("/proc/thread-self")).getFileName.toString)
    catch { case _: Exception => None }
  private var next = 0

  private def taskset(cpus: String): Boolean = threadId.exists { tid =>
    try {
      val p = new ProcessBuilder("taskset", "-p", "-c", cpus, tid)
        .redirectErrorStream(true).redirectOutput(Redirect.DISCARD).start()
      p.waitFor() == 0
    } catch { case _: Exception => false }
  }

  /** Whether the thread that made this object can be pinned at all. */
  val rotating: Boolean = count > 1 && taskset(s"0-${count - 1}")

  /** Pins the thread that made this object to the next core in turn. */
  def advance(): Unit = if (rotating) {
    taskset((next % count).toString)
    next += 1
  }

  /** Lets that thread run on every core again. Threads inherit their
    * creator's cores, so no thread should start while it is pinned.
    */
  def release(): Unit = if (rotating) taskset(s"0-${count - 1}")
}
