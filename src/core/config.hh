/**
 * @file
 * Configuration of the AsyncClock detector.
 */

#ifndef ASYNCCLOCK_CORE_CONFIG_HH
#define ASYNCCLOCK_CORE_CONFIG_HH

#include <cstdint>

namespace asyncclock::core {

/** Chain decomposition strategy (sections 3.4 and 4.2). */
enum class ChainMode : std::uint8_t {
    Greedy,     ///< online greedy decomposition [17]
    Fifo,       ///< FIFO chain decomposition (level-1/2/3), falling
                ///< back to greedy for other events
};

/**
 * Detector knobs. The defaults correspond to the configuration the
 * paper evaluates end-to-end: all reclamation optimizations on, a
 * 2-minute time window, FIFO chain decomposition.
 */
struct DetectorConfig
{
    /** Reclaim heirless events by reference counting (section 4.1).
     * Off = keep every event's metadata forever (the "no reclaiming"
     * curve of Fig 9a). */
    bool reclaimHeirless = true;

    /** Multi-path reduction at event end (section 4.1). */
    bool multiPathReduction = true;

    /** Time-window approximation: events older than this (virtual ms)
     * are assumed ordered before new events and their metadata is
     * invalidated. 0 disables the window. Default: the paper's
     * 2-minute window. */
    std::uint64_t windowMs = 120000;

    /** Run a garbage-collection sweep (drop dead/aged AsyncClock
     * entries, trim async-before lists) every this many operations. */
    std::uint64_t gcIntervalOps = 4096;

    ChainMode chainMode = ChainMode::Fifo;

    /**
     * Soft cap on detector metadata bytes (0 = uncapped). Checked at
     * GC cadence; while over budget the detector climbs a degradation
     * ladder — aggressive sweep, then window halving (never below
     * minWindowMs), then full invalidation of every ended event.
     * Later rungs trade recall for memory exactly like a smaller
     * configured window would; counters record each rung so the
     * report can state the recall impact. Checker bytes are excluded
     * from the measure: they are access-history driven and no rung
     * can shrink them, so counting them would only push the ladder
     * into rungs that cannot bring it back under budget.
     */
    std::uint64_t memBudgetBytes = 0;

    /** Floor for ladder window shrinking. */
    std::uint64_t minWindowMs = 1000;

    /**
     * Protocol-violation budget: operations that contradict the
     * entity life cycles (begin without send, op from an ended
     * thread, ...) are dropped and counted, up to this many; one more
     * fails the run with a structured status instead of corrupting
     * detector state. Decode-level skips make such sequences
     * reachable from plain corrupt files, so they must not abort.
     */
    std::uint64_t maxInvalidOps = 64;

    /**
     * Per-phase latency attribution: carve each op's cost into
     * decode / model-apply / clock-join / race-check / gc-sweep
     * buckets (engine.hh). Costs a handful of steady_clock reads per
     * op when on; when off the only residue is one predicted branch
     * per instrumentation site, keeping the disabled-overhead budget
     * (<2%) intact.
     */
    bool phaseTiming = false;

    /** Async-before walk early stopping (section 5.3 cases 1 and 2).
     * On in the paper's tool; off only for ablation studies — without
     * it, predecessor walks on tagged-event chains degenerate to the
     * same super-linear behaviour as EventRacer's traversal. */
    bool earlyStopping = true;
};

/** Observability counters (benches and tests read these). */
struct DetectorCounters
{
    std::uint64_t eventsSeen = 0;
    std::uint64_t eventsLive = 0;       ///< metadata records alive
    std::uint64_t eventsLivePeak = 0;
    std::uint64_t reclaimedRefcount = 0;
    std::uint64_t reclaimedMultiPath = 0;
    std::uint64_t invalidatedByWindow = 0;
    std::uint64_t chainsCreated = 0;
    std::uint64_t chainsReused = 0;
    std::uint64_t gcSweeps = 0;
    std::uint64_t walkSteps = 0;        ///< async-before list visits
    std::uint64_t walkEarlyStops = 0;
    std::uint64_t clockTicks = 0;       ///< chain clock increments
    std::uint64_t clockJoins = 0;       ///< vector-clock joins
    /** Events placed in FIFO chains by level (index 1..3); index 0
     * counts greedy-placed events. */
    std::uint64_t fifoLevel[4] = {0, 0, 0, 0};

    // ----- robustness -----------------------------------------------
    /** Protocol-invalid operations dropped by the admission gate. */
    std::uint64_t invalidOpsDropped = 0;
    /** Causality-invariant violations tolerated mid-resolution (a
     * consequence of dropped/reordered ops upstream). */
    std::uint64_t causalAnomalies = 0;
    /** Degradation-ladder rungs fired (see memBudgetBytes). */
    std::uint64_t pressureGcSweeps = 0;
    std::uint64_t pressureWindowShrinks = 0;
    std::uint64_t pressureInvalidations = 0;
};

} // namespace asyncclock::core

#endif // ASYNCCLOCK_CORE_CONFIG_HH
