/**
 * @file
 * Fault-injection subsystem tests: per-injector FaultPlan units, backoff
 * bounds, config validation, the forward-progress watchdog (unit and
 * converting a genuinely wedged machine into a structured failure),
 * single-fault recovery through the MSHR retry path, and the
 * fault-transparency property over the quick grid.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/machine.hh"
#include "exp/chaos.hh"
#include "exp/grid.hh"
#include "fault/fault.hh"
#include "fault/fault_config.hh"
#include "fault/watchdog.hh"
#include "sim/task.hh"

using namespace mcsim;

namespace
{

/** An enabled plan with every rate zero (hardened protocol, no faults). */
fault::FaultConfig
enabledConfig()
{
    fault::FaultConfig fc;
    fc.enable = true;
    fc.seed = 42;
    return fc;
}

} // namespace

TEST(FaultConfig, ValidateRejectsBadSettings)
{
    fault::FaultConfig fc = enabledConfig();
    fc.dropRate = 1.5;
    EXPECT_THROW(fc.validate(), FatalError);

    fc = enabledConfig();
    fc.replyLossRate = -0.1;
    EXPECT_THROW(fc.validate(), FatalError);

    fc = enabledConfig();
    fc.dupRate = 0.5;
    fc.delayMaxCycles = 0;
    EXPECT_THROW(fc.validate(), FatalError);

    fc = enabledConfig();
    fc.blackoutPeriod = 100;
    fc.blackoutMaxCycles = 100;  // outage as long as its period
    EXPECT_THROW(fc.validate(), FatalError);

    // Lossy plan with neither retries nor a watchdog would hang.
    fc = enabledConfig();
    fc.replyLossRate = 0.5;
    fc.retryTimeoutCycles = 0;
    fc.watchdogCycles = 0;
    EXPECT_THROW(fc.validate(), FatalError);

    EXPECT_NO_THROW(enabledConfig().validate());
}

TEST(FaultConfig, PresetsValidateAndOffIsDisabled)
{
    for (const std::string &name : fault::faultPresetNames()) {
        const fault::FaultConfig fc = fault::faultPreset(name);
        EXPECT_NO_THROW(fc.validate()) << name;
        EXPECT_EQ(fc.enabled(), name != "off") << name;
    }
    EXPECT_THROW(fault::faultPreset("cataclysmic"), FatalError);
}

TEST(FaultPlan, DropInjectorHonorsBudgetAndDroppability)
{
    fault::FaultConfig fc = enabledConfig();
    fc.dropRate = 1.0;
    fc.budget = 1;
    fault::FaultPlan plan(fc);

    // Non-droppable kinds are never dropped, even at rate 1.
    EXPECT_FALSE(plan.onNetMessage(true, false).drop);
    EXPECT_EQ(plan.stats().drops, 0u);

    EXPECT_TRUE(plan.onNetMessage(true, true).drop);
    EXPECT_EQ(plan.stats().drops, 1u);

    // Budget spent: perfect hardware from here on.
    for (int i = 0; i < 50; ++i)
        EXPECT_FALSE(plan.onNetMessage(true, true).drop);
    EXPECT_EQ(plan.stats().total(), 1u);
}

TEST(FaultPlan, DuplicateInjectorDelaysTheCopy)
{
    fault::FaultConfig fc = enabledConfig();
    fc.dupRate = 1.0;
    fc.delayMaxCycles = 16;
    fc.budget = 1;
    fault::FaultPlan plan(fc);

    const fault::FaultAction act = plan.onNetMessage(false, true);
    EXPECT_TRUE(act.duplicate);
    EXPECT_FALSE(act.drop);
    EXPECT_GE(act.duplicateDelay, 1u);
    EXPECT_LE(act.duplicateDelay, 16u);
    EXPECT_EQ(plan.stats().duplicates, 1u);
    EXPECT_FALSE(plan.onNetMessage(false, true).duplicate);
}

TEST(FaultPlan, DelayInjectorBoundsAndAppliesToAllKinds)
{
    fault::FaultConfig fc = enabledConfig();
    fc.delayRate = 1.0;
    fc.delayMaxCycles = 8;
    fault::FaultPlan plan(fc);

    for (int i = 0; i < 100; ++i) {
        // Delay-eligible even when not droppable (e.g. Invalidate).
        const fault::FaultAction act = plan.onNetMessage(true, false);
        EXPECT_GE(act.extraDelay, 1u);
        EXPECT_LE(act.extraDelay, 8u);
        EXPECT_FALSE(act.drop);
        EXPECT_FALSE(act.duplicate);
    }
    EXPECT_EQ(plan.stats().delays, 100u);
}

TEST(FaultPlan, ReplyLossInjectorHonorsBudget)
{
    fault::FaultConfig fc = enabledConfig();
    fc.replyLossRate = 1.0;
    fc.budget = 2;
    fault::FaultPlan plan(fc);

    EXPECT_TRUE(plan.loseReply(0));
    EXPECT_TRUE(plan.loseReply(1));
    EXPECT_FALSE(plan.loseReply(0));
    EXPECT_EQ(plan.stats().replyLosses, 2u);
}

TEST(FaultPlan, ModuleStallBounds)
{
    fault::FaultConfig fc = enabledConfig();
    fc.moduleStallRate = 1.0;
    fc.moduleStallMaxCycles = 12;
    fault::FaultPlan plan(fc);

    for (int i = 0; i < 100; ++i) {
        const Tick stall = plan.stallCycles(i % 4);
        EXPECT_GE(stall, 1u);
        EXPECT_LE(stall, 12u);
    }
    EXPECT_EQ(plan.stats().moduleStalls, 100u);
}

TEST(FaultPlan, BlackoutIsOneContiguousOutagePerWindow)
{
    fault::FaultConfig fc = enabledConfig();
    fc.blackoutPeriod = 2000;
    fc.blackoutMaxCycles = 100;
    fault::FaultPlan plan(fc);

    // Scan several windows tick by tick: inside a window the outage must
    // be one contiguous range no longer than the cap, every deferral must
    // point at the same outage end, and the deferral target must lie
    // within the window.
    for (Tick window = 0; window < 8; ++window) {
        const Tick base = window * fc.blackoutPeriod;
        Tick outage_ticks = 0;
        Tick outage_end = 0;
        bool in_outage = false;
        bool outage_over = false;
        for (Tick t = base; t < base + fc.blackoutPeriod; ++t) {
            const Tick until = plan.blackoutUntil(0, t);
            if (until == 0) {
                if (in_outage) {
                    in_outage = false;
                    outage_over = true;
                }
                continue;
            }
            EXPECT_FALSE(outage_over) << "outage not contiguous";
            in_outage = true;
            outage_ticks += 1;
            EXPECT_GT(until, t);
            if (outage_end == 0)
                outage_end = until;
            EXPECT_EQ(until, outage_end) << "deferral target moved";
            EXPECT_LE(until, base + fc.blackoutPeriod);
        }
        EXPECT_LE(outage_ticks, Tick(fc.blackoutMaxCycles));
    }
    EXPECT_GT(plan.stats().blackoutDeferrals, 0u);
}

TEST(FaultPlan, BackoffIsBoundedExponentialWithJitter)
{
    fault::FaultConfig fc = enabledConfig();
    fc.backoffBaseCycles = 64;
    fc.backoffMaxCycles = 4096;
    fc.backoffJitterCycles = 32;
    fault::FaultPlan plan(fc);

    for (unsigned attempt = 1; attempt <= 20; ++attempt) {
        const Tick floor = std::min<Tick>(
            Tick(fc.backoffBaseCycles) << (attempt - 1),
            fc.backoffMaxCycles);
        for (ProcId proc = 0; proc < 4; ++proc) {
            const Tick b = plan.backoffCycles(proc, attempt);
            EXPECT_GE(b, floor) << "attempt " << attempt;
            EXPECT_LE(b, floor + fc.backoffJitterCycles)
                << "attempt " << attempt;
        }
    }

    // No jitter configured: the schedule is exactly the capped powers.
    fc.backoffJitterCycles = 0;
    fault::FaultPlan exact(fc);
    EXPECT_EQ(exact.backoffCycles(0, 1), 64u);
    EXPECT_EQ(exact.backoffCycles(0, 2), 128u);
    EXPECT_EQ(exact.backoffCycles(0, 7), 4096u);
    EXPECT_EQ(exact.backoffCycles(0, 40), 4096u);  // shift saturates
}

TEST(Watchdog, UnitTripAndReset)
{
    fault::ForwardProgressWatchdog wd(100);
    EXPECT_FALSE(wd.poll(0, 0));
    EXPECT_FALSE(wd.poll(50, 10));    // progress
    EXPECT_FALSE(wd.poll(149, 10));   // 99 stalled cycles
    EXPECT_TRUE(wd.poll(150, 10));    // 100: trip
    EXPECT_FALSE(wd.poll(200, 11));   // progress resets it
    EXPECT_TRUE(wd.poll(300, 11));

    fault::ForwardProgressWatchdog off(0);
    EXPECT_FALSE(off.poll(1'000'000, 0));
}

namespace
{

core::MachineConfig
smallFaultyConfig()
{
    core::MachineConfig cfg;
    cfg.numProcs = 2;
    cfg.numModules = 2;
    cfg.fault = fault::faultPreset("off");
    cfg.fault.enable = true;
    cfg.fault.seed = 7;
    return cfg;
}

} // namespace

TEST(FaultMachine, SingleLostReplyRecoversThroughRetry)
{
    core::MachineConfig cfg = smallFaultyConfig();
    cfg.fault.replyLossRate = 1.0;
    cfg.fault.budget = 1;  // exactly one lost reply, then perfect
    cfg.fault.retryTimeoutCycles = 100;
    core::Machine machine(cfg);
    machine.memory().ensure(4096);
    machine.memory().writeU64(64, 0xdead);

    machine.startWorkload(0, [](cpu::Processor &p) -> SimTask {
        const std::uint64_t v = co_await p.loadUse(64);
        co_await p.store(128, v + 1);
    }(machine.proc(0)));
    machine.run();

    EXPECT_EQ(machine.memory().readU64(128), 0xdeadu + 1);
    EXPECT_EQ(machine.faultPlan()->stats().replyLosses, 1u);
    EXPECT_GE(machine.cache(0).stats().retries, 1u);
}

TEST(FaultMachine, WatchdogConvertsWedgeIntoStructuredFailure)
{
    // Every data reply is lost forever: the retry storm keeps the event
    // queue busy (so the deadlock detector never sees it empty) while no
    // instruction retires -- exactly the livelock the watchdog exists
    // for.
    core::MachineConfig cfg = smallFaultyConfig();
    cfg.fault.replyLossRate = 1.0;
    cfg.fault.retryTimeoutCycles = 100;
    cfg.fault.backoffBaseCycles = 16;
    cfg.fault.backoffMaxCycles = 64;
    cfg.fault.backoffJitterCycles = 4;
    cfg.fault.watchdogCycles = 30'000;
    core::Machine machine(cfg);
    machine.memory().ensure(4096);

    machine.startWorkload(0, [](cpu::Processor &p) -> SimTask {
        (void)co_await p.loadUse(64);
    }(machine.proc(0)));

    try {
        machine.run();
        FAIL() << "wedged machine completed";
    } catch (const FatalError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("watchdog"), std::string::npos) << what;
        EXPECT_NE(what.find("diagnostic snapshot"), std::string::npos)
            << what;
        // The snapshot names the stuck MSHR and its retry count.
        EXPECT_NE(what.find("mshr"), std::string::npos) << what;
    }
}

TEST(FaultTransparency, QuickGridUnderStandardFaults)
{
    // The tentpole property: for every paper model, a standard fault
    // plan may change when everything happens but not what the program
    // computes -- runs complete, the invariant and axiomatic checkers
    // stay clean, and final memory is byte-identical to the fault-free
    // baseline. (SC1/SC2/WO1/WO2/RC; the blocking variants are covered
    // by the CI chaos sweep over the full quick grid.)
    const exp::Grid quick = exp::namedGrid("quick", exp::Scale::Quick);
    exp::Grid grid{"quick-chaos", {}};
    for (const exp::SweepPoint &point : quick.points) {
        switch (point.model) {
          case core::Model::SC1:
          case core::Model::SC2:
          case core::Model::WO1:
          case core::Model::WO2:
          case core::Model::RC:
            grid.points.push_back(point);
            break;
          default:
            break;
        }
    }
    ASSERT_FALSE(grid.points.empty());

    exp::ChaosOptions opts;
    opts.preset = "standard";
    opts.progress = false;
    const exp::ChaosReport report = exp::runChaos(grid, opts);
    for (const exp::ChaosPointResult &r : report.points)
        EXPECT_TRUE(r.ok) << r.id << ": " << r.error;
    EXPECT_GT(report.totalInjected(), 0u);
    EXPECT_GT(report.totalRetries(), 0u);
    EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(FaultTransparency, AblationBarrierPointsUnderStandardFaults)
{
    // Synthetic stores to shared words without locks, so which racing
    // store lands last varies with timing; its fingerprint covers only
    // the private regions and the lock-protected counter, which every
    // schedule must agree on.
    const exp::Grid ablation = exp::namedGrid("ablation", exp::Scale::Quick);
    exp::Grid grid{"ablation-barriers", {}};
    for (const exp::SweepPoint &point : ablation.points)
        if (point.benchmark == "Synthetic")
            grid.points.push_back(point);
    ASSERT_EQ(grid.points.size(), 2u);

    exp::ChaosOptions opts;
    opts.preset = "standard";
    opts.progress = false;
    const exp::ChaosReport report = exp::runChaos(grid, opts);
    for (const exp::ChaosPointResult &r : report.points)
        EXPECT_TRUE(r.ok) << r.id << ": " << r.error;
    EXPECT_GT(report.totalInjected(), 0u);
    EXPECT_TRUE(report.ok()) << report.summary();
}
