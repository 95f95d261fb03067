/**
 * @file
 * The memory consistency models under study (paper Table 1) and the
 * hardware features each one enables.
 *
 * | System | Major features                                                |
 * |--------|---------------------------------------------------------------|
 * | SC1    | sequentially consistent, non-blocking loads                   |
 * | SC2    | SC1 + hardware-directed non-binding prefetch at stalls        |
 * | WO1    | hw-visible sync ops; no stall on access while refs outstanding |
 * | WO2    | WO1 + bypassing of pending messages by loads                   |
 * | RC     | WO1 + no stall while a release completes; no stall for         |
 * |        | outstanding accesses at an acquire                             |
 * | bSC1   | SC1 with blocking loads (section 5.1)                          |
 * | bWO1   | WO1 with blocking loads (section 5.1)                          |
 */

#ifndef MCSIM_CORE_CONSISTENCY_HH
#define MCSIM_CORE_CONSISTENCY_HH

#include <string>

namespace mcsim::core
{

/** The simulated system types. */
enum class Model
{
    SC1,
    SC2,
    WO1,
    WO2,
    RC,
    BSC1,  ///< blocking-load SC1
    BWO1,  ///< blocking-load WO1
};

/** All models, in the paper's presentation order. */
constexpr Model allModels[] = {Model::SC1,  Model::SC2, Model::WO1,
                               Model::WO2,  Model::RC,  Model::BSC1,
                               Model::BWO1};

/**
 * Hardware capabilities implied by a model; the Processor and Machine are
 * parameterized by this rather than by the enum so single features can be
 * ablated independently.
 */
struct ModelParams
{
    Model model = Model::SC1;
    /** MSHR count: 1 for SC1/bSC1, 2 for SC2 (demand + prefetch),
     *  5 for the relaxed models (paper section 3.2). */
    unsigned numMshrs = 1;
    /** Stall at the second access while one is outstanding (SC rule). */
    bool singleOutstanding = true;
    /** Loads stall until the line returns on a miss (bSC1/bWO1). */
    bool blockingLoads = false;
    /** Issue a non-binding prefetch for the access that caused a stall. */
    bool prefetchOnStall = false;
    /** Load requests bypass queued messages in the interface buffer. */
    bool loadBypass = false;
    /** Release-consistent treatment of acquires and releases. */
    bool releaseConsistent = false;
    /** Sync operations drain all outstanding accesses before issuing
     *  (weak ordering; under RC only fences and releases do). */
    bool syncDrains = false;
    /** Under the SC systems, a data-store miss stops counting as the
     *  outstanding reference once its request has been handed to the
     *  network interface buffer -- the paper's "(very) limited use of
     *  write buffers" that hides write latency "in all implementations"
     *  (sections 2.1 and 4.1.3). The ablation grid's scsb variant
     *  turns it on. */
    bool scStoreBufferRelease = false;
};

/** Canonical feature set for @p model (paper configuration). */
ModelParams modelParams(Model model, unsigned relaxed_mshrs = 5);

/** Display name ("SC1", "WO1", ...). */
const char *modelName(Model model);

/** Parse a model name; fatal() on unknown names. */
Model modelFromName(const std::string &name);

/** True for the two sequentially consistent systems (and bSC1). */
bool isSequentiallyConsistent(Model model);

} // namespace mcsim::core

#endif // MCSIM_CORE_CONSISTENCY_HH
