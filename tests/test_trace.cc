/**
 * @file
 * Trace front-end conformance suite (DESIGN.md section 14).
 *
 * Four property families:
 *  - codec round trips: random records and headers survive
 *    encode/decode byte-exactly, including the delta state;
 *  - capture -> replay identity: every quick-grid point (all seven
 *    models x the four paper workloads) replays its own capture with
 *    bit-identical cycles and metrics;
 *  - malformed-input rejection: every corruption class raises a
 *    structured FatalError from validation, never a crash or an assert
 *    inside the machine;
 *  - generator contract: seed-stable byte-identical output, pinned
 *    distribution shapes, and the committed golden corpus
 *    (tests/golden/traces/) regenerating exactly.
 */

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "exp/grid.hh"
#include "mem/functional_memory.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "trace/capture.hh"
#include "trace/format.hh"
#include "trace/generators.hh"
#include "trace/import.hh"
#include "trace/reader.hh"
#include "trace/replay.hh"
#include "trace/writer.hh"
#include "workloads/workload.hh"

using namespace mcsim;

namespace
{

/** A record with only the fields the codec preserves for @p kind. */
trace::Record
randomRecord(Rng &rng)
{
    trace::Record rec;
    rec.kind = static_cast<trace::OpKind>(rng.below(9));
    const bool isLoad = rec.kind == trace::OpKind::Load ||
                        rec.kind == trace::OpKind::LoadUse;
    const bool isStore = rec.kind == trace::OpKind::Store ||
                         rec.kind == trace::OpKind::SyncStore;
    switch (rec.kind) {
      case trace::OpKind::Exec:
        rec.cycles = static_cast<std::uint32_t>(rng.next());
        break;
      case trace::OpKind::Use:
        rec.token = rng.below(1u << 20);
        break;
      case trace::OpKind::Load:
      case trace::OpKind::LoadUse:
      case trace::OpKind::Store:
      case trace::OpKind::SyncLoad:
      case trace::OpKind::SyncRmw:
      case trace::OpKind::SyncStore:
      case trace::OpKind::Fence:
        break;
    }
    if (rec.kind != trace::OpKind::Exec && rec.kind != trace::OpKind::Use &&
        rec.kind != trace::OpKind::Fence) {
        rec.addr = rng.below(1u << 24);
    }
    if (isStore)
        rec.value = rng.next();
    // The wire format allows 32-bit width on plain data accesses only
    // (sync ops are always word-sized).
    if (isLoad || rec.kind == trace::OpKind::Store)
        rec.width = rng.chance(0.25) ? 4 : 8;
    if (isLoad)
        rec.own = rng.chance(0.25);
    return rec;
}

std::vector<std::uint8_t>
tinyTrace(trace::Generator kind, unsigned procs, unsigned ops,
          std::uint64_t seed)
{
    trace::GeneratorParams params;
    params.kind = kind;
    params.procs = procs;
    params.opsPerProc = ops;
    params.seed = seed;
    return trace::generateTraceBytes(params);
}

/** Expect TraceWorkload construction (full validation) to throw. */
void
expectRejected(std::vector<std::uint8_t> bytes, const char *what)
{
    EXPECT_THROW(
        trace::TraceWorkload(
            std::make_shared<trace::MemorySource>(std::move(bytes))),
        FatalError)
        << what;
}

/** Patch the file header's CRC after a deliberate field edit. */
void
resealHeader(std::vector<std::uint8_t> &bytes)
{
    const std::uint32_t crc =
        trace::crc32(bytes.data(), trace::headerBytes - 4);
    bytes[60] = static_cast<std::uint8_t>(crc);
    bytes[61] = static_cast<std::uint8_t>(crc >> 8);
    bytes[62] = static_cast<std::uint8_t>(crc >> 16);
    bytes[63] = static_cast<std::uint8_t>(crc >> 24);
}

} // namespace

// ---------------------------------------------------------------------
// Codec round trips
// ---------------------------------------------------------------------

TEST(TraceFormat, RecordCodecRoundTripsRandomStreams)
{
    Rng rng(0x7261636543u);
    std::vector<trace::Record> records;
    for (unsigned i = 0; i < 4096; ++i)
        records.push_back(randomRecord(rng));

    std::vector<std::uint8_t> wire;
    trace::CodecState enc;
    for (const trace::Record &rec : records)
        trace::encodeRecord(wire, enc, rec);

    trace::CodecState dec;
    std::size_t pos = 0;
    for (const trace::Record &rec : records) {
        const trace::Record got =
            trace::decodeRecord(wire.data(), wire.size(), pos, dec, "test");
        EXPECT_EQ(got, rec);
    }
    EXPECT_EQ(pos, wire.size());
}

TEST(TraceFormat, EncodingIsDeterministic)
{
    // Byte-exact: the same record sequence encodes to the same bytes, so
    // a deterministic producer yields a byte-identical file.
    Rng rngA(42), rngB(42);
    std::vector<std::uint8_t> a, b;
    trace::CodecState sa, sb;
    for (unsigned i = 0; i < 512; ++i) {
        trace::encodeRecord(a, sa, randomRecord(rngA));
        trace::encodeRecord(b, sb, randomRecord(rngB));
    }
    EXPECT_EQ(a, b);
}

TEST(TraceFormat, HeaderRoundTrips)
{
    trace::TraceHeader header;
    header.procCount = 16;
    header.seed = 0xDEADBEEFCAFEull;
    header.generator = trace::Generator::Ring;
    header.source = "ring";
    header.totalRecords = 123456789;

    const std::vector<std::uint8_t> bytes = trace::encodeHeader(header);
    ASSERT_EQ(bytes.size(), trace::headerBytes);
    const trace::TraceHeader got = trace::decodeHeader(bytes.data());
    EXPECT_EQ(got.procCount, header.procCount);
    EXPECT_EQ(got.seed, header.seed);
    EXPECT_EQ(got.generator, header.generator);
    EXPECT_EQ(got.source, header.source);
    EXPECT_EQ(got.totalRecords, header.totalRecords);
}

TEST(TraceFormat, GeneratorNamesRoundTrip)
{
    for (trace::Generator g :
         {trace::Generator::Captured, trace::Generator::Zipfian,
          trace::Generator::Bursty, trace::Generator::Ring,
          trace::Generator::LockStorm}) {
        EXPECT_EQ(trace::generatorFromName(trace::generatorName(g)), g);
    }
    EXPECT_THROW(trace::generatorFromName("bogus"), FatalError);
}

TEST(TraceFormat, Crc32MatchesReferenceVectors)
{
    // IEEE 802.3 check value: the framing must never drift, committed
    // traces embed these CRCs.
    EXPECT_EQ(trace::crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(trace::crc32("", 0), 0x00000000u);
}

// ---------------------------------------------------------------------
// Capture -> replay identity
// ---------------------------------------------------------------------

TEST(TraceCaptureReplay, QuickGridReplaysBitIdentically)
{
    // Every quick-grid point (7 models x 4 workloads): record the run
    // through the issue-boundary tap, replay the trace on the identical
    // configuration, and require bit-identical cycles and metrics.
    const exp::Grid grid = exp::namedGrid("quick", exp::Scale::Quick);
    ASSERT_EQ(grid.points.size(), 28u);
    for (const exp::SweepPoint &point : grid.points) {
        const auto workload = point.makeWorkload();
        trace::TraceHeader header;
        header.procCount = point.numProcs;
        header.seed = point.seed;
        header.source = point.benchmark;

        trace::MemorySink sink;
        trace::TraceCapture capture(header, sink);
        const workloads::RunResult captured = workloads::runWorkload(
            *workload, point.machineConfig(),
            [&](core::Machine &m) { capture.attach(m); });
        capture.finish();

        trace::TraceWorkload replay(
            std::make_shared<trace::MemorySource>(sink.take()),
            point.benchmark);
        const workloads::RunResult replayed =
            workloads::runWorkload(replay, point.machineConfig());

        EXPECT_EQ(captured.metrics.cycles, replayed.metrics.cycles)
            << point.id();
        const StatSet a = captured.metrics.toStatSet();
        const StatSet b = replayed.metrics.toStatSet();
        for (const auto &[name, value] : a)
            EXPECT_EQ(value, b.get(name)) << point.id() << ": " << name;
    }
}

TEST(TraceCaptureReplay, CaptureDoesNotPerturbTheRun)
{
    // The tap is observational: a captured run's cycle count equals the
    // same run without capture.
    exp::SweepPoint point;
    point.benchmark = "Qsort";
    point.model = core::Model::RC;
    point.scale = exp::Scale::Quick;
    point.numProcs = 8;
    point.cacheBytes = 4096;
    point.seed = point.derivedSeed();

    const auto plainWl = point.makeWorkload();
    const workloads::RunResult plain =
        workloads::runWorkload(*plainWl, point.machineConfig());

    trace::TraceHeader header;
    header.procCount = point.numProcs;
    header.source = point.benchmark;
    trace::MemorySink sink;
    trace::TraceCapture capture(header, sink);
    const auto capturedWl = point.makeWorkload();
    const workloads::RunResult captured = workloads::runWorkload(
        *capturedWl, point.machineConfig(),
        [&](core::Machine &m) { capture.attach(m); });
    capture.finish();

    EXPECT_EQ(plain.metrics.cycles, captured.metrics.cycles);
    EXPECT_GT(capture.recordCount(), 0u);
}

TEST(TraceCaptureReplay, ReplayTerminatesOnEveryModel)
{
    // A generated trace is a traffic pattern: replay must terminate and
    // fully retire on all seven models, not just a capture source.
    const auto bytes = tinyTrace(trace::Generator::LockStorm, 4, 200, 5);
    for (core::Model model : core::allModels) {
        trace::TraceWorkload replay(
            std::make_shared<trace::MemorySource>(bytes));
        core::MachineConfig cfg;
        cfg.numProcs = 4;
        cfg.numModules = 4;
        cfg.cacheBytes = 4096;
        cfg.model = model;
        const workloads::RunResult result =
            workloads::runWorkload(replay, cfg);
        EXPECT_GT(result.metrics.cycles, 0u) << core::modelName(model);
    }
}

TEST(TraceCaptureReplay, FingerprintIsContentNotTiming)
{
    // The chaos fingerprint is the trace content hash: identical bytes
    // give identical fingerprints on any model, distinct seeds differ.
    const auto bytes = tinyTrace(trace::Generator::Zipfian, 4, 200, 7);
    trace::TraceWorkload a(std::make_shared<trace::MemorySource>(bytes));
    trace::TraceWorkload b(std::make_shared<trace::MemorySource>(bytes));
    EXPECT_EQ(a.traceSummary().contentHash, b.traceSummary().contentHash);

    const auto other = tinyTrace(trace::Generator::Zipfian, 4, 200, 8);
    trace::TraceWorkload c(std::make_shared<trace::MemorySource>(other));
    EXPECT_NE(a.traceSummary().contentHash, c.traceSummary().contentHash);
}

TEST(TraceCaptureReplay, ReplayRefusesToRescale)
{
    const auto bytes = tinyTrace(trace::Generator::Zipfian, 4, 64, 1);
    trace::TraceWorkload replay(
        std::make_shared<trace::MemorySource>(bytes));
    core::MachineConfig cfg;
    cfg.numProcs = 8;  // trace recorded for 4
    cfg.numModules = 8;
    cfg.cacheBytes = 4096;
    EXPECT_THROW(workloads::runWorkload(replay, cfg), FatalError);
}

// ---------------------------------------------------------------------
// Malformed-input rejection
// ---------------------------------------------------------------------

TEST(TraceMalformed, RejectsTruncationEverywhere)
{
    const auto bytes = tinyTrace(trace::Generator::Bursty, 2, 64, 9);
    ASSERT_GT(bytes.size(), trace::headerBytes + trace::blockHeaderBytes);

    // No complete file header.
    expectRejected({bytes.begin(), bytes.begin() + 10}, "tiny prefix");
    expectRejected({bytes.begin(), bytes.begin() + trace::headerBytes - 1},
                   "header cut short");
    // Partial block header.
    expectRejected(
        {bytes.begin(), bytes.begin() + trace::headerBytes + 7},
        "partial block header");
    // Block payload cut short.
    expectRejected({bytes.begin(), bytes.end() - 1}, "payload cut short");
}

TEST(TraceMalformed, RejectsBadMagicAndVersion)
{
    auto bytes = tinyTrace(trace::Generator::Bursty, 2, 64, 9);
    auto bad = bytes;
    bad[0] ^= 0xFF;
    expectRejected(bad, "file magic");

    bad = bytes;
    bad[4] = 99;  // version field precedes the CRC check by design:
                  // future versions may re-lay-out the header
    expectRejected(bad, "version");

    bad = bytes;
    bad[trace::headerBytes] ^= 0xFF;  // first block's magic
    expectRejected(bad, "block magic");
}

TEST(TraceMalformed, RejectsHeaderCorruption)
{
    auto bytes = tinyTrace(trace::Generator::Bursty, 2, 64, 9);
    auto bad = bytes;
    bad[16] ^= 0x01;  // seed byte: CRC no longer matches
    expectRejected(bad, "header CRC");

    // Resealed corruption: the CRC is valid but the field is absurd.
    bad = bytes;
    bad[12] = 200;  // generator id way past LockStorm
    resealHeader(bad);
    expectRejected(bad, "generator id");

    bad = bytes;
    bad[8] = 0;  // procCount = 0
    resealHeader(bad);
    expectRejected(bad, "zero procs");

    bad = bytes;
    bad[24] ^= 0x01;  // totalRecords disagrees with the block index
    resealHeader(bad);
    expectRejected(bad, "record count mismatch");
}

TEST(TraceMalformed, RejectsBlockCorruption)
{
    const auto bytes = tinyTrace(trace::Generator::Bursty, 2, 64, 9);
    const std::size_t block = trace::headerBytes;

    auto bad = bytes;
    bad[block + 4] = 77;  // proc id out of the 2-proc range
    expectRejected(bad, "out-of-range proc");

    bad = bytes;
    bad[block + 8] = 0;  // record count 0
    bad[block + 9] = 0;
    bad[block + 10] = 0;
    bad[block + 11] = 0;
    expectRejected(bad, "implausible record count");

    bad = bytes;
    bad[block + trace::blockHeaderBytes] ^= 0xFF;  // payload byte
    expectRejected(bad, "payload CRC");
}

TEST(TraceMalformed, RejectsMidRecordTruncation)
{
    // A store head byte followed by a dangling varint continuation:
    // decode must fault on the mid-record end of payload, not read past.
    const std::uint8_t payload[] = {0x04, 0x80};
    trace::CodecState state;
    std::size_t pos = 0;
    EXPECT_THROW(trace::decodeRecord(payload, sizeof(payload), pos, state,
                                     "test block"),
                 FatalError);

    const std::uint8_t badOpcode[] = {0x4F};
    pos = 0;
    EXPECT_THROW(trace::decodeRecord(badOpcode, sizeof(badOpcode), pos,
                                     state, "test block"),
                 FatalError);
}

TEST(TraceMalformed, RejectsSemanticViolations)
{
    // Structurally clean traces whose content would trip processor
    // asserts: validation must refuse them first.
    {
        // Use of a token no Load produced.
        trace::TraceHeader header;
        header.procCount = 1;
        header.source = "bad";
        trace::MemorySink sink;
        trace::TraceWriter writer(header, sink);
        trace::Record use;
        use.kind = trace::OpKind::Use;
        use.token = 5;
        writer.append(0, use);
        writer.finish();
        expectRejected(sink.take(), "dead token");
    }
    {
        // Misaligned address for the access width.
        trace::TraceHeader header;
        header.procCount = 1;
        header.source = "bad";
        trace::MemorySink sink;
        trace::TraceWriter writer(header, sink);
        trace::Record load;
        load.kind = trace::OpKind::Load;
        load.addr = 3;
        writer.append(0, load);
        writer.finish();
        expectRejected(sink.take(), "misaligned");
    }
}

TEST(TraceMalformed, RejectsAddressesPastTheSegment)
{
    // Validation must bound every access before a machine exists: an
    // end that wraps 2^64 or passes the segment would otherwise overflow
    // or exhaust the functional store at replay.
    constexpr Addr bound = mem::FunctionalMemory::segmentBytes;
    auto single = [](trace::OpKind kind, Addr addr, std::uint8_t width) {
        trace::TraceHeader header;
        header.procCount = 2;
        header.source = "bad";
        trace::MemorySink sink;
        trace::TraceWriter writer(header, sink);
        trace::Record rec;
        rec.kind = kind;
        rec.addr = addr;
        rec.width = width;
        rec.value = 1;
        writer.append(1, rec);
        writer.finish();
        return sink.take();
    };
    expectRejected(single(trace::OpKind::Store, 0xfffffffffffffff8ull, 8),
                   "store wraps 2^64");
    expectRejected(single(trace::OpKind::LoadUse, 0xfffffffffffffff8ull, 8),
                   "load wraps 2^64");
    expectRejected(single(trace::OpKind::LoadUse, 0x100000000000ull, 8),
                   "load far past the segment");
    expectRejected(single(trace::OpKind::Store, bound, 4),
                   "store ends 4 bytes past the segment");

    const trace::TraceReader last(std::make_shared<trace::MemorySource>(
        single(trace::OpKind::Store, bound - 8, 8)));
    EXPECT_EQ(last.validate().addrLimit, bound);
}

TEST(TraceMalformed, RejectsTrailingPayloadBytes)
{
    // Hand-frame a block whose payload holds one record plus a stray
    // byte; the CRC is correct, so only record accounting catches it.
    trace::TraceHeader header;
    header.procCount = 1;
    header.source = "bad";
    header.totalRecords = 1;

    std::vector<std::uint8_t> payload;
    trace::CodecState state;
    trace::Record fence;
    fence.kind = trace::OpKind::Fence;
    trace::encodeRecord(payload, state, fence);
    payload.push_back(0x08);  // a stray extra byte

    std::vector<std::uint8_t> bytes = trace::encodeHeader(header);
    trace::putU32(bytes, trace::blockMagic);
    trace::putU32(bytes, 0);  // proc
    trace::putU32(bytes, 1);  // records
    trace::putU32(bytes, static_cast<std::uint32_t>(payload.size()));
    trace::putU32(bytes, trace::crc32(payload.data(), payload.size()));
    bytes.insert(bytes.end(), payload.begin(), payload.end());
    expectRejected(bytes, "trailing bytes");
}

// ---------------------------------------------------------------------
// Generator contract
// ---------------------------------------------------------------------

TEST(TraceGenerators, SameSeedSameBytes)
{
    for (trace::Generator g :
         {trace::Generator::Zipfian, trace::Generator::Bursty,
          trace::Generator::Ring, trace::Generator::LockStorm}) {
        const auto a = tinyTrace(g, 4, 300, 21);
        const auto b = tinyTrace(g, 4, 300, 21);
        EXPECT_EQ(a, b) << trace::generatorName(g);
        const auto c = tinyTrace(g, 4, 300, 22);
        EXPECT_NE(a, c) << trace::generatorName(g);
    }
}

TEST(TraceGenerators, EveryGeneratedTraceValidates)
{
    for (trace::Generator g :
         {trace::Generator::Zipfian, trace::Generator::Bursty,
          trace::Generator::Ring, trace::Generator::LockStorm}) {
        trace::TraceReader reader(std::make_shared<trace::MemorySource>(
            tinyTrace(g, 4, 400, 13)));
        const trace::TraceSummary summary = reader.validate();
        EXPECT_GT(summary.records, 0u) << trace::generatorName(g);
        EXPECT_GT(summary.addrLimit, 0u) << trace::generatorName(g);
    }
}

TEST(TraceGenerators, ZipfianSkewConcentratesOnHotKeys)
{
    trace::GeneratorParams params;
    params.kind = trace::Generator::Zipfian;
    params.procs = 4;
    params.opsPerProc = 2000;
    params.seed = 17;
    params.hotKeys = 64;
    params.zipfSkew = 1.2;
    trace::TraceReader reader(std::make_shared<trace::MemorySource>(
        trace::generateTraceBytes(params)));

    // Count data references per key across all processors.
    std::vector<std::uint64_t> perKey(params.hotKeys, 0);
    std::uint64_t total = 0;
    for (unsigned p = 0; p < params.procs; ++p) {
        trace::TraceReader::Stream stream = reader.stream(p);
        trace::Record rec;
        while (stream.next(rec)) {
            if (rec.kind != trace::OpKind::Load &&
                rec.kind != trace::OpKind::Store)
                continue;
            const std::uint64_t key = (rec.addr - 4096) / 8;
            ASSERT_LT(key, perKey.size());
            perKey[key] += 1;
            total += 1;
        }
    }
    ASSERT_GT(total, 0u);
    // Key 0 carries the largest share, far above uniform (1/64), and
    // the top-8 keys dominate -- the zipfian signature.
    const double top = static_cast<double>(perKey[0]) / total;
    EXPECT_GT(top, 5.0 / 64.0);
    std::uint64_t top8 = 0;
    for (unsigned k = 0; k < 8; ++k)
        top8 += perKey[k];
    EXPECT_GT(static_cast<double>(top8) / total, 0.5);
    for (unsigned k = 1; k < 8; ++k)
        EXPECT_GE(perKey[0], perKey[k]);
}

TEST(TraceGenerators, ShapesMatchTheirProtocols)
{
    const auto kindCount = [](const std::vector<std::uint8_t> &bytes) {
        trace::TraceReader reader(
            std::make_shared<trace::MemorySource>(bytes));
        return reader.validate().perKind;
    };

    // Lock storm: each critical section emits exactly one test read,
    // one rmw, and one releasing store.
    const auto lock =
        kindCount(tinyTrace(trace::Generator::LockStorm, 4, 500, 5));
    const auto idx = [](trace::OpKind k) {
        return static_cast<std::size_t>(k);
    };
    EXPECT_GT(lock[idx(trace::OpKind::SyncRmw)], 0u);
    EXPECT_EQ(lock[idx(trace::OpKind::SyncLoad)],
              lock[idx(trace::OpKind::SyncRmw)]);
    EXPECT_EQ(lock[idx(trace::OpKind::SyncLoad)],
              lock[idx(trace::OpKind::SyncStore)]);

    // Ring: one acquire-shaped flag read per release-shaped publish.
    const auto ring =
        kindCount(tinyTrace(trace::Generator::Ring, 4, 500, 3));
    EXPECT_GT(ring[idx(trace::OpKind::SyncStore)], 0u);
    EXPECT_EQ(ring[idx(trace::OpKind::SyncLoad)],
              ring[idx(trace::OpKind::SyncStore)]);

    // Burst: every overlapped load is eventually used.
    const auto burst =
        kindCount(tinyTrace(trace::Generator::Bursty, 4, 500, 11));
    EXPECT_GT(burst[idx(trace::OpKind::Load)], 0u);
    EXPECT_EQ(burst[idx(trace::OpKind::Load)],
              burst[idx(trace::OpKind::Use)]);
}

TEST(TraceGenerators, RejectsBadParameters)
{
    trace::GeneratorParams params;
    params.kind = trace::Generator::Zipfian;
    params.procs = 6;  // not a power of two
    EXPECT_THROW(trace::generateTraceBytes(params), FatalError);

    params.procs = 4;
    params.zipfSkew = 9.0;
    EXPECT_THROW(trace::generateTraceBytes(params), FatalError);

    params.zipfSkew = 0.9;
    params.kind = trace::Generator::Captured;
    EXPECT_THROW(trace::generateTraceBytes(params), FatalError);
}

// ---------------------------------------------------------------------
// Golden corpus
// ---------------------------------------------------------------------

namespace
{

std::vector<std::uint8_t>
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing golden trace " << path;
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** The committed corpus: (file, generator, seed); 4 procs x 200 ops. */
struct CorpusEntry
{
    const char *file;
    trace::Generator kind;
    std::uint64_t seed;
};

constexpr CorpusEntry corpus[] = {
    {"zipf_p4.mct", trace::Generator::Zipfian, 7},
    {"burst_p4.mct", trace::Generator::Bursty, 11},
    {"ring_p4.mct", trace::Generator::Ring, 3},
    {"lock_p4.mct", trace::Generator::LockStorm, 5},
};

} // namespace

TEST(TraceGolden, CorpusRegeneratesByteIdentically)
{
    // The committed traces are the cross-version conformance anchor: a
    // format or generator change that breaks byte identity must be
    // intentional (regenerate via `trace_runner generate`, see
    // EXPERIMENTS.md) and reviewed.
    for (const CorpusEntry &entry : corpus) {
        const auto committed = readFileBytes(
            std::string(MCSIM_GOLDEN_DIR) + "/traces/" + entry.file);
        const auto regenerated = tinyTrace(entry.kind, 4, 200, entry.seed);
        EXPECT_EQ(committed, regenerated) << entry.file;
    }
}

TEST(TraceGolden, CorpusReplaysOnAllModels)
{
    for (const CorpusEntry &entry : corpus) {
        const auto bytes = readFileBytes(
            std::string(MCSIM_GOLDEN_DIR) + "/traces/" + entry.file);
        if (bytes.empty())
            continue;  // readFileBytes already failed the expectation
        for (core::Model model : core::allModels) {
            trace::TraceWorkload replay(
                std::make_shared<trace::MemorySource>(bytes));
            core::MachineConfig cfg;
            cfg.numProcs = 4;
            cfg.numModules = 4;
            cfg.cacheBytes = 4096;
            cfg.model = model;
            const workloads::RunResult result =
                workloads::runWorkload(replay, cfg);
            EXPECT_GT(result.metrics.cycles, 0u)
                << entry.file << " on " << core::modelName(model);
        }
    }
}

// ---------------------------------------------------------------------
// Text import (`<proc> <r|w> <hex-addr>` lines -> canonical .mct)
// ---------------------------------------------------------------------

TEST(TraceImport, MapsLinesToRecordsExactly)
{
    const std::string text = "# comment, then a blank line\n"
                             "\n"
                             "0 r 0x1000\n"
                             "1 w 0xabcd\n"
                             "2 R 1008\n"
                             "0 W 0x1009\n";
    trace::MemorySink sink;
    const trace::ImportSummary summary =
        trace::importTextTrace(text, {}, sink);
    EXPECT_EQ(summary.records, 4u);
    EXPECT_EQ(summary.reads, 2u);
    EXPECT_EQ(summary.writes, 2u);
    EXPECT_EQ(summary.blankLines, 2u);
    // Highest proc is 2 -> next power of two is 4 (Omega routing).
    EXPECT_EQ(summary.procs, 4u);

    trace::TraceReader reader(
        std::make_shared<trace::MemorySource>(sink.take()));
    EXPECT_EQ(reader.header().procCount, 4u);
    EXPECT_EQ(reader.header().generator, trace::Generator::Captured);
    EXPECT_EQ(reader.header().source, "import");
    reader.validate();

    // proc 0: read 0x1000, then write of 0x1009 aligned down to 0x1008
    // carrying the 1-based transaction number as its value.
    trace::TraceReader::Stream p0 = reader.stream(0);
    trace::Record rec;
    ASSERT_TRUE(p0.next(rec));
    EXPECT_EQ(rec.kind, trace::OpKind::LoadUse);
    EXPECT_EQ(rec.addr, 0x1000u);
    ASSERT_TRUE(p0.next(rec));
    EXPECT_EQ(rec.kind, trace::OpKind::Store);
    EXPECT_EQ(rec.addr, 0x1008u);
    EXPECT_EQ(rec.value, 4u);
    EXPECT_FALSE(p0.next(rec));

    // proc 1: the write to 0xabcd aligns down to 0xabc8.
    trace::TraceReader::Stream p1 = reader.stream(1);
    ASSERT_TRUE(p1.next(rec));
    EXPECT_EQ(rec.kind, trace::OpKind::Store);
    EXPECT_EQ(rec.addr, 0xabc8u);
    EXPECT_EQ(rec.value, 2u);

    // proc 2: bare hex (no 0x prefix) still parses as hex.
    trace::TraceReader::Stream p2 = reader.stream(2);
    ASSERT_TRUE(p2.next(rec));
    EXPECT_EQ(rec.kind, trace::OpKind::LoadUse);
    EXPECT_EQ(rec.addr, 0x1008u);
}

TEST(TraceImport, IsDeterministic)
{
    const std::string text = "0 r 0x10\n1 w 0x20\n0 w 0x30\n";
    trace::MemorySink a, b;
    trace::importTextTrace(text, {}, a);
    trace::importTextTrace(text, {}, b);
    EXPECT_EQ(a.bytes(), b.bytes());
    EXPECT_FALSE(a.bytes().empty());
}

TEST(TraceImport, ProcOverrideMustBePowerOfTwoAndLargeEnough)
{
    const std::string text = "4 r 0x10\n";
    trace::MemorySink sink;
    trace::ImportParams params;

    params.procs = 16; // widen beyond the inferred 8: allowed
    EXPECT_EQ(trace::importTextTrace(text, params, sink).procs, 16u);

    params.procs = 4; // proc 4 needs at least 5 slots
    EXPECT_THROW(trace::importTextTrace(text, params, sink), FatalError);
    params.procs = 6; // not a power of two (Omega networks)
    EXPECT_THROW(trace::importTextTrace(text, params, sink), FatalError);
}

TEST(TraceImport, RejectsEveryMalformedLineWithItsNumber)
{
    trace::MemorySink sink;
    const struct
    {
        const char *text;
        const char *why;
    } bad[] = {
        {"0 r 0x10\n1 x 0x20\n", "unknown operation"},
        {"0 w 0xNOPE\n", "bad address"},
        {"p9 r 0x1000\n", "bad processor"},
        {"0 r 0x10 extra\n", "trailing junk"},
        {"0 r\n", "missing address"},
        {"# only comments\n\n", "empty trace"},
        {"0 w 0xfffffffffffffff8\n", "address wraps 2^64"},
        {"1 r 0x100000000000\n", "address past the segment"},
        {"0 r 0x3ffffffc\n0 r 0x40000000\n", "address past the segment"},
    };
    for (const auto &c : bad) {
        EXPECT_THROW(trace::importTextTrace(c.text, {}, sink), FatalError)
            << c.why;
    }
}

TEST(TraceImport, RejectedFileImportLeavesTheOutputAsItWas)
{
    char tmpl[] = "/tmp/mcsim_import_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    const std::string dir = tmpl;
    const std::string text_path = dir + "/bad.txt";
    std::ofstream(text_path) << "0 r 0x100\n0 q 0x200\n";
    auto slurp = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };

    const std::string existing = dir + "/existing.mct";
    std::ofstream(existing, std::ios::binary) << "previous bytes";
    EXPECT_THROW(trace::importTextTraceFile(text_path, existing, {}),
                 FatalError);
    EXPECT_EQ(slurp(existing), "previous bytes");

    const std::string fresh = dir + "/fresh.mct";
    EXPECT_THROW(trace::importTextTraceFile(text_path, fresh, {}),
                 FatalError);
    EXPECT_FALSE(std::filesystem::exists(fresh));
    EXPECT_FALSE(std::filesystem::exists(fresh + ".tmp"));
    std::filesystem::remove_all(dir);
}

TEST(TraceImport, ImportedTracesReplayOnEveryModel)
{
    // A small contended mix: every model must replay an imported trace
    // to completion (the import emits only blocking LoadUse/Store, which
    // every protocol handles).
    std::string text;
    for (unsigned i = 0; i < 64; ++i) {
        text += strprintf("%u %c 0x%x\n", i % 4, i % 3 == 0 ? 'w' : 'r',
                          0x1000 + (i % 8) * 8);
    }
    trace::MemorySink sink;
    trace::importTextTrace(text, {}, sink);
    const std::vector<std::uint8_t> bytes = sink.take();
    for (core::Model model : core::allModels) {
        trace::TraceWorkload replay(
            std::make_shared<trace::MemorySource>(bytes));
        core::MachineConfig cfg;
        cfg.numProcs = 4;
        cfg.numModules = 4;
        cfg.cacheBytes = 4096;
        cfg.model = model;
        const workloads::RunResult result =
            workloads::runWorkload(replay, cfg);
        EXPECT_GT(result.metrics.cycles, 0u) << core::modelName(model);
    }
}
