/**
 * @file
 * Process shutdown signals, delivered the self-pipe way.
 *
 * A long-lived analysis (an interactive `--serve` run, the
 * `asyncclockd` daemon) must turn SIGINT/SIGTERM into a *graceful*
 * exit: stop admissions, flush sessions to their spools or reports,
 * then leave with status 0. Signal handlers can do almost nothing
 * safely, so the handler here only records the signal number and
 * writes one byte to a pipe. Everything else polls:
 *
 *  - pipeline loops call shutdownRequested() on their op cadence
 *    (one relaxed atomic load);
 *  - event loops (the HTTP listener, the daemon main thread) include
 *    shutdownFd() in their poll set and wake instantly — shutdown is
 *    signal-driven, never a poll-timeout race.
 *
 * Installation is idempotent and the state is process-global by
 * design: SIGTERM is addressed to the process, and both the --serve
 * path and the daemon drain path react to the same request.
 * requestShutdown() raises the flag without a real signal, so tests
 * exercise the drain protocol deterministically.
 */

#ifndef ASYNCCLOCK_SUPPORT_SIGNAL_HH
#define ASYNCCLOCK_SUPPORT_SIGNAL_HH

namespace asyncclock::support {

/** Install SIGINT/SIGTERM handlers routing into the shutdown flag +
 * self-pipe. Idempotent; returns false (with a warn) if the pipe or
 * sigaction setup fails — the process then keeps the default
 * die-on-signal behaviour. */
bool installShutdownHandlers();

/** Has a shutdown been requested (signal caught, or
 * requestShutdown())? One relaxed atomic load — poll freely. */
bool shutdownRequested();

/** The signal that requested shutdown (SIGINT/SIGTERM), or 0. */
int shutdownSignal();

/**
 * Read end of the self-pipe: becomes readable on the first shutdown
 * request and stays readable (the byte is never drained), so any
 * number of poll loops can select on it. -1 until
 * installShutdownHandlers() succeeds.
 */
int shutdownFd();

/** Block until a shutdown is requested (poll on shutdownFd()). */
void waitForShutdown();

/** Raise the shutdown flag as if @p sig had been delivered (tests,
 * and in-process drain triggers). Async-signal-safe. */
void requestShutdown(int sig);

/** Clear the flag so one process can run several independent
 * shutdown cycles (tests only — real shutdowns don't come back). */
void resetShutdownForTest();

} // namespace asyncclock::support

#endif // ASYNCCLOCK_SUPPORT_SIGNAL_HH
