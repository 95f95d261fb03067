/**
 * @file
 * The simulated processor: a RISC-like core that executes a workload
 * coroutine and applies the stall rules of the configured consistency
 * model (paper sections 3.2 and 5.1).
 *
 * Workloads issue abstract instructions by co_awaiting the factory methods
 * below. Non-blocking (delayed) loads are modeled by splitting a load into
 * issue (load()) and register read (use()); the processor keeps a register
 * scoreboard and stalls a use() until the value is available, exactly the
 * interlock the paper describes. All shared-data values are carried
 * functionally: data loads/stores execute against FunctionalMemory at
 * issue, synchronization operations at their timed completion (so lock
 * handoffs serialize in simulated-time order).
 */

#ifndef MCSIM_CPU_PROCESSOR_HH
#define MCSIM_CPU_PROCESSOR_HH

#include <bit>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/consistency.hh"
#include "mem/cache.hh"
#include "mem/functional_memory.hh"
#include "obs/stall.hh"
#include "obs/tracer.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/task.hh"
#include "sim/types.hh"

namespace mcsim::check
{
class Checker;
} // namespace mcsim::check

namespace mcsim::axiom
{
class TraceRecorder;
} // namespace mcsim::axiom

namespace mcsim::cpu
{

/** Per-processor configuration. */
struct ProcParams
{
    ProcId id = 0;
    core::ModelParams model{};
    /** Delayed-load latency in cycles (paper: 4; section 5.3: 2). */
    unsigned loadDelay = 4;
    /** Branch delay in cycles (tracks loadDelay in the paper). */
    unsigned branchDelay = 4;
};

/** Per-processor execution statistics. */
struct ProcStats
{
    std::uint64_t instructions = 0;
    std::uint64_t execCycles = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t syncLoads = 0;
    std::uint64_t syncRmws = 0;
    std::uint64_t syncStores = 0;
    std::uint64_t fences = 0;

    /** Stalled at issue by the single-outstanding (SC) rule. */
    std::uint64_t issueStallCycles = 0;
    /** Stalled draining outstanding refs at a sync point (WO). */
    std::uint64_t drainStallCycles = 0;
    /** Stalled on the register interlock (or blocking-load wait). */
    std::uint64_t useStallCycles = 0;
    /** Stalled waiting for a sync operation itself to complete. */
    std::uint64_t syncStallCycles = 0;
    /** Stalled because the cache had no resources (MSHR/way conflict). */
    std::uint64_t blockedStallCycles = 0;

    std::uint64_t releasesDeferred = 0;
    Tick finishedAt = 0;

    /**
     * Exact cycle attribution (src/obs/): unlike the per-rule counters
     * above -- which mirror the paper's charges and overlap -- this
     * tiles [0, finishedAt) exactly: busy + every stall cause ==
     * finishedAt.
     */
    obs::StallBreakdown breakdown;

    void
    addTo(StatSet &out, const std::string &prefix) const
    {
        breakdown.addTo(out, prefix);
        out.add(prefix + "instructions", static_cast<double>(instructions));
        out.add(prefix + "exec_cycles", static_cast<double>(execCycles));
        out.add(prefix + "loads", static_cast<double>(loads));
        out.add(prefix + "stores", static_cast<double>(stores));
        out.add(prefix + "sync_loads", static_cast<double>(syncLoads));
        out.add(prefix + "sync_rmws", static_cast<double>(syncRmws));
        out.add(prefix + "sync_stores", static_cast<double>(syncStores));
        out.add(prefix + "fences", static_cast<double>(fences));
        out.add(prefix + "issue_stall_cycles",
                static_cast<double>(issueStallCycles));
        out.add(prefix + "drain_stall_cycles",
                static_cast<double>(drainStallCycles));
        out.add(prefix + "use_stall_cycles",
                static_cast<double>(useStallCycles));
        out.add(prefix + "sync_stall_cycles",
                static_cast<double>(syncStallCycles));
        out.add(prefix + "blocked_stall_cycles",
                static_cast<double>(blockedStallCycles));
        out.add(prefix + "releases_deferred",
                static_cast<double>(releasesDeferred));
    }
};

/** Reinterpret helpers for carrying doubles through 64-bit registers. @{ */
inline std::uint64_t asBits(double v) { return std::bit_cast<std::uint64_t>(v); }
inline double asF64(std::uint64_t v) { return std::bit_cast<double>(v); }
/** @} */

/**
 * One simulated processor.
 */
class Processor
{
  public:
    /** Abstract instruction kinds issued by workloads. */
    enum class OpKind : std::uint8_t
    {
        Exec,       ///< register-register computation, N cycles
        Load,       ///< non-blocking load; result is a register token
        Use,        ///< read a register token; result is the loaded value
        LoadUse,    ///< load followed immediately by its use
        Store,      ///< non-blocking store
        SyncLoad,   ///< strongly-ordered load (acquire under RC)
        SyncRmw,    ///< test-and-set (acquire under RC)
        SyncStore,  ///< sync write (release under RC)
        Fence,      ///< SYNC instruction
    };

    /** One abstract instruction. */
    struct Op
    {
        OpKind kind{OpKind::Exec};
        Addr addr = 0;
        std::uint64_t value = 0;
        std::uint32_t cycles = 0;
        std::uint64_t token = 0;
        /** Functional access width in bytes (4 or 8); timing unaffected. */
        std::uint8_t width = 8;
        /** Loads only: fetch with ownership (read-exclusive). */
        bool own = false;
    };

    /**
     * Observer of the workload's instruction stream at the issue
     * boundary (src/trace/ capture). Sees every op exactly once, in
     * program order, before any stall rule applies; purely
     * observational, so wiring one can never change timing.
     */
    class IssueSink
    {
      public:
        virtual ~IssueSink() = default;
        virtual void onIssue(const Op &op) = 0;
    };

    /** Awaitable returned by all instruction factories. */
    class [[nodiscard]] Awaiter
    {
      public:
        Awaiter(Processor &p, Op op) : proc(p), op(op) {}
        bool await_ready() const { return false; }

        bool
        await_suspend(std::coroutine_handle<> h)
        {
            return proc.beginOp(op, h);
        }

        std::uint64_t await_resume() const { return proc.opResult; }

      private:
        Processor &proc;
        Op op;
    };

    Processor(EventQueue &eq, const ProcParams &params, mem::Cache &cache,
              mem::FunctionalMemory &memory);

    Processor(const Processor &) = delete;
    Processor &operator=(const Processor &) = delete;

    /** Bind the workload and schedule its first instruction at tick 0. */
    void start(SimTask &&t);

    /** True once the workload coroutine has returned. */
    bool done() const { return finished; }

    /** Invoked when the workload finishes (Machine bookkeeping). */
    void setDoneHandler(std::function<void()> fn) { doneFn = std::move(fn); }

    /** Instruction factories (co_await the result). @{ */
    Awaiter exec(std::uint32_t cycles) { return {*this, Op{OpKind::Exec, 0, 0, cycles, 0}}; }
    Awaiter branch() { return exec(cfg.branchDelay); }
    Awaiter load(Addr a) { return {*this, Op{OpKind::Load, a, 0, 0, 0}}; }
    Awaiter use(std::uint64_t token) { return {*this, Op{OpKind::Use, 0, 0, 0, token}}; }
    Awaiter loadUse(Addr a) { return {*this, Op{OpKind::LoadUse, a, 0, 0, 0}}; }
    Awaiter store(Addr a, std::uint64_t v) { return {*this, Op{OpKind::Store, a, v, 0, 0}}; }
    /** 32-bit variants (the paper's benchmarks mix int and double data). @{ */
    Awaiter load32(Addr a) { return {*this, Op{OpKind::Load, a, 0, 0, 0, 4}}; }
    Awaiter loadUse32(Addr a) { return {*this, Op{OpKind::LoadUse, a, 0, 0, 0, 4}}; }
    Awaiter store32(Addr a, std::uint32_t v) { return {*this, Op{OpKind::Store, a, v, 0, 0, 4}}; }
    /** @} */
    /** Read-with-ownership variants: fetch the line exclusive so a later
     *  store hits instead of self-invalidating (paper section 3.3's
     *  "usefulness of a read with ownership request"). @{ */
    Awaiter loadOwn(Addr a) { return {*this, Op{OpKind::Load, a, 0, 0, 0, 8, true}}; }
    Awaiter loadUseOwn(Addr a) { return {*this, Op{OpKind::LoadUse, a, 0, 0, 0, 8, true}}; }
    /** @} */
    Awaiter syncLoad(Addr a) { return {*this, Op{OpKind::SyncLoad, a, 0, 0, 0}}; }
    Awaiter testAndSet(Addr a) { return {*this, Op{OpKind::SyncRmw, a, 0, 0, 0}}; }
    Awaiter syncStore(Addr a, std::uint64_t v) { return {*this, Op{OpKind::SyncStore, a, v, 0, 0}}; }
    Awaiter fence() { return {*this, Op{OpKind::Fence, 0, 0, 0, 0}}; }
    /** @} */

    /** Direct functional-memory access (initialization / verification). */
    mem::FunctionalMemory &memory() { return mem; }

    Tick now() const { return queue.now(); }
    ProcId id() const { return cfg.id; }
    const ProcParams &params() const { return cfg; }
    const ProcStats &stats() const { return procStats; }

    /** Shared accesses currently outstanding (tests/diagnostics). */
    unsigned outstandingRefs() const { return outstanding; }
    bool releaseInFlight() const { return releasePending; }

    /** Wire the invariant checker (Machine; nullptr = no checking). */
    void setChecker(check::Checker *c) { checker = c; }

    /** Wire the axiomatic trace recorder (Machine; nullptr = off). */
    void setRecorder(axiom::TraceRecorder *r) { recorder = r; }

    /** Wire the event tracer (Machine; nullptr = no tracing). */
    void setTracer(obs::Tracer *t) { tracer = t; }

    /** Wire the issue-boundary observer (trace capture; nullptr = off). */
    void setIssueSink(IssueSink *s) { issueSink = s; }

    /**
     * Fault injection (tests only): ignore the drain gate at the next sync
     * operation that would stall on it, issuing the sync op with references
     * still outstanding -- the ordering linter must catch this.
     */
    void injectSkipNextDrainForTest() { skipNextDrain = true; }

    /**
     * Fault injection (tests only): persistently disable every
     * sync-ordering wait -- the WO drain-before-sync gate, the RC
     * deferred-release wait, and the fence drain -- yielding a machine
     * that issues syncs and releases while data references are still
     * outstanding. The axiomatic checker must reject its traces.
     */
    void injectDisableSyncOrderingForTest() { syncOrderingDisabled = true; }

  private:
    friend class Awaiter;

    /** Why the current op is suspended. */
    enum class WaitKind : std::uint8_t
    {
        None,        ///< scheduled resume, nothing to check
        Gated,       ///< waiting for an issue gate to clear
        Completion,  ///< waiting for a specific cache transaction
        Register,    ///< use() waiting for an unknown-latency load
    };

    enum class Gate : std::uint8_t
    {
        None,
        SingleOutstanding,  ///< SC rule
        Drain,              ///< WO sync point / fence
        ReleaseBusy,        ///< RC: a release is already pending
        CacheBlocked,       ///< no MSHR / way conflict
    };

    struct TokenState
    {
        std::uint64_t value = 0;
        Tick ready = maxTick;
        bool readyKnown = false;
    };

    struct InFlight
    {
        OpKind kind{OpKind::Load};
        Addr addr = 0;
        std::uint64_t value = 0;
        std::uint64_t token = 0;
        bool releaseTagged = false;
        bool isRelease = false;
        /** Outstanding slot already freed at buffer hand-off (SC). */
        bool earlyReleased = false;
        /** Trace event awaiting its perform timestamp (recorder). */
        std::uint32_t traceId = noTraceId;
    };

    /** InFlight::traceId when recording is off. */
    static constexpr std::uint32_t noTraceId = UINT32_MAX;

    std::uint64_t readMem(Addr addr, std::uint8_t width) const;
    void writeMem(Addr addr, std::uint64_t value, std::uint8_t width);

    struct Active
    {
        Op op;
        std::coroutine_handle<> h;
        Tick startTick = 0;
        WaitKind wait = WaitKind::None;
        Gate gate = Gate::None;
        Tick gateStart = 0;
        /** Stall cause the open gate span is charged to (set when the
         *  span starts, so a later completion cannot re-classify it). */
        obs::StallCause gateCause = obs::StallCause::LoadMiss;
        /** Start of the current Completion/Register wait (attribution:
         *  the gate spans already cover [startTick, issue)). */
        Tick waitStart = 0;
        std::uint64_t waitCookie = 0;
        std::uint64_t waitToken = 0;
        bool prefetched = false;
    };

    /** Entry from Awaiter::await_suspend; true means stay suspended. */
    bool beginOp(const Op &op, std::coroutine_handle<> h);

    /** (Re)try issuing the active memory op; updates wait/gate state. */
    void attemptMem();

    /** Cache access result handling. @{ */
    void handleHit();
    void handleIssued(std::uint64_t cookie);
    /** @} */

    /** Cache transaction completion (cookie). */
    void onCompletion(std::uint64_t cookie);
    /** Cache resource-retry notification. */
    void onRetry();

    /** RC release machinery. @{ */
    void deferRelease(const Op &op);
    void tryIssueRelease();
    /** @} */

    /** Charge gate-stall time and clear the gate. */
    void clearGate();

    /** Exact attribution charges (ProcStats::breakdown + tracer). @{ */
    void chargeBusy(std::uint64_t cycles);
    void chargeStall(obs::StallCause cause, Tick from, Tick until);
    /** The cause a gate span opening now is charged to (per-model). */
    obs::StallCause gateCauseFor(Gate gate) const;
    /** @} */

    /** Finish the active op: resume at @p when with @p result. */
    void finishAt(Tick when, std::uint64_t result);
    /** Finish at @p when with the result of @p eval, a
     *  `std::uint64_t()` callable run at resume time. */
    template <typename Eval>
    void finishAtEval(Tick when, Eval eval);
    /** Resume the suspended coroutine right now with @p result. */
    void resumeNow(std::uint64_t result);
    void afterResume();

    mem::AccessType accessTypeFor(OpKind kind) const;
    void countOp(const Op &op);

    EventQueue &queue;
    ProcParams cfg;
    mem::Cache &cache;
    mem::FunctionalMemory &mem;

    SimTask task;
    bool started = false;
    bool finished = false;
    std::function<void()> doneFn;

    std::optional<Active> active;
    std::uint64_t opResult = 0;

    std::unordered_map<std::uint64_t, TokenState> tokens;
    std::unordered_map<std::uint64_t, InFlight> inFlight;
    std::uint64_t nextToken = 1;
    std::uint64_t nextCookie = 1;
    unsigned outstanding = 0;

    /** Tracing (enabled via MCSIM_TRACE env var): sync-op timeline. */
    static bool traceEnabled();
    void trace(const char *what, Addr addr, std::uint64_t value) const;

    /** RC release state: at most one pending release at a time. */
    bool releasePending = false;
    std::optional<Op> deferredRelease;  ///< release not yet issued to cache
    unsigned releaseCounter = 0;        ///< tagged refs still outstanding

    check::Checker *checker = nullptr;
    axiom::TraceRecorder *recorder = nullptr;
    obs::Tracer *tracer = nullptr;
    IssueSink *issueSink = nullptr;
    /** Trace id of the deferred RC release (at most one pending). */
    std::uint32_t releaseTraceId = noTraceId;
    bool skipNextDrain = false;  ///< fault injection, tests only
    bool syncOrderingDisabled = false;  ///< fault injection, tests only

    ProcStats procStats;
};

} // namespace mcsim::cpu

#endif // MCSIM_CPU_PROCESSOR_HH
