/**
 * @file
 * Suite for src/svc/: shard plans, checkpoint journals, resume, and the
 * byte-identical merge contract, in process and through the
 * sweep_runner binary.
 *
 * The core property under test: for ANY shard count and ANY
 * interruption (a journal cut at any byte, a SIGKILLed process, a write
 * cut short by a file-size limit), the resumed run's document is
 * byte-for-byte the document an uninterrupted plain run emits. Cut
 * offsets come from a seeded Rng, so failures replay exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "exp/grid.hh"
#include "exp/sweep.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "svc/atomic_file.hh"
#include "svc/journal.hh"
#include "svc/merge.hh"
#include "svc/shard.hh"
#include "trace/format.hh"

namespace
{

using namespace mcsim;

/** Fresh scratch directory (tests only; src/ stays entropy-free). */
std::string
makeTempDir()
{
    char tmpl[] = "/tmp/mcsim_svc_XXXXXX";
    const char *dir = mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    return dir == nullptr ? "/tmp" : dir;
}

std::string
slurp(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    EXPECT_NE(file, nullptr) << path;
    if (file == nullptr)
        return {};
    std::string out;
    char buf[1 << 16];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0)
        out.append(buf, got);
    std::fclose(file);
    return out;
}

/** Replace the contents of @p path with @p bytes. */
void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::FILE *file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr) << path;
    std::fwrite(bytes.data(), 1, bytes.size(), file);
    std::fclose(file);
}

/**
 * The mini grid: six of the quick grid's cheapest points (Relax and
 * Psim under three models each), real workloads and real metrics at a
 * fraction of a full quick run.
 */
exp::Grid
miniGrid()
{
    const exp::Grid quick = exp::namedGrid("quick", exp::Scale::Quick);
    exp::Grid grid{"mini", {}};
    for (const char *bench : {"Relax", "Psim"}) {
        unsigned taken = 0;
        for (const exp::SweepPoint &point : quick.points)
            if (point.benchmark == bench && taken++ < 3)
                grid.points.push_back(point);
    }
    return grid;
}

svc::ShardPlan
miniPlan(std::uint32_t shards, std::uint32_t shard = 0)
{
    return {miniGrid(), exp::Scale::Quick, shard, shards};
}

exp::SweepOptions
quiet(unsigned threads = 1)
{
    exp::SweepOptions options;
    options.threads = threads;
    options.progress = false;
    return options;
}

/** The plain-run document for the mini grid, computed once per suite. */
const exp::Json &
referenceDoc()
{
    static const exp::Json doc = [] {
        exp::SweepOutcomes outcomes;
        outcomes.add(miniGrid(), exp::SweepRunner(quiet()).run(miniGrid()));
        return outcomes.toJson();
    }();
    return doc;
}

/** The document a journaled run builds from the journals in @p dir. */
exp::Json
mergedDoc(const svc::ShardPlan &plan, const std::string &dir)
{
    svc::MergeResult merged = svc::mergeJournals(plan, dir);
    EXPECT_EQ(merged.coveredPoints, plan.grid.points.size());
    return exp::sweepDocument({{plan.grid.name, std::move(merged.jobs)}});
}

TEST(SvcShard, RoundRobinPartitionCoversEveryPointOnce)
{
    const svc::ShardPlan plan{exp::namedGrid("quick", exp::Scale::Quick),
                              exp::Scale::Quick, 0, 5};
    ASSERT_EQ(plan.grid.points.size(), 28u);

    std::vector<unsigned> hits(plan.grid.points.size(), 0);
    for (std::uint32_t k = 0; k < plan.shardCount; ++k) {
        const std::vector<std::size_t> indices = plan.shardIndices(k);
        EXPECT_EQ(indices.size(), plan.journalHeader(k).shardPoints);
        for (const std::size_t i : indices) {
            ASSERT_LT(i, hits.size());
            hits[i] += 1;
            EXPECT_EQ(i % plan.shardCount, k);
        }
    }
    for (const unsigned h : hits)
        EXPECT_EQ(h, 1u);
}

TEST(SvcShard, FingerprintIsStableAndSensitive)
{
    const svc::ShardPlan base{exp::namedGrid("quick", exp::Scale::Quick),
                              exp::Scale::Quick, 0, 4};
    const std::uint64_t fp = base.fingerprint();
    // A pure function of the plan, shared by all of its shards.
    svc::ShardPlan other = base;
    other.shard = 3;
    EXPECT_EQ(other.fingerprint(), fp);

    other = base;
    other.shardCount = 5;
    EXPECT_NE(other.fingerprint(), fp);
    other = base;
    other.scale = exp::Scale::Full;
    EXPECT_NE(other.fingerprint(), fp);
    other = base;
    other.grid.name = "quick2";
    EXPECT_NE(other.fingerprint(), fp);
    other = base;
    other.grid.points[7].lineBytes = 32; // geometry lands in the id
    EXPECT_NE(other.fingerprint(), fp);
    other = base;
    other.grid.points[0].faultPreset = "light"; // so does a preset
    EXPECT_NE(other.fingerprint(), fp);
}

TEST(SvcJournal, HeaderAndFramesRoundTrip)
{
    const std::string dir = makeTempDir();
    const std::string path = dir + "/round.mcsj";

    svc::JournalHeader header;
    header.shardIndex = 1;
    header.shardCount = 3;
    header.gridPoints = 10;
    header.shardPoints = 3;
    header.planFingerprint = 0xDEADBEEFCAFEF00Dull;
    header.grid = "quick";

    {
        svc::JournalWriter writer = svc::JournalWriter::create(path, header);
        writer.append(1, "{\"a\":1}");
        writer.append(4, std::string(1000, 'x'));
        writer.append(7, "");
        writer.close();
    }

    const svc::JournalScan scan = svc::scanJournal(path);
    EXPECT_FALSE(scan.headerTorn);
    EXPECT_EQ(scan.tornBytes, 0u);
    EXPECT_EQ(scan.header.shardIndex, 1u);
    EXPECT_EQ(scan.header.shardCount, 3u);
    EXPECT_EQ(scan.header.gridPoints, 10u);
    EXPECT_EQ(scan.header.shardPoints, 3u);
    EXPECT_EQ(scan.header.planFingerprint, 0xDEADBEEFCAFEF00Dull);
    EXPECT_EQ(scan.header.grid, "quick");
    ASSERT_EQ(scan.frames.size(), 3u);
    EXPECT_EQ(scan.frames[0].index, 1u);
    EXPECT_EQ(scan.frames[0].payload, "{\"a\":1}");
    EXPECT_EQ(scan.frames[1].payload, std::string(1000, 'x'));
    EXPECT_EQ(scan.frames[2].index, 7u);
    EXPECT_EQ(scan.validBytes, slurp(path).size());
}

TEST(SvcJournal, DuplicateAndForeignIndicesAreStructuralCorruption)
{
    const std::string dir = makeTempDir();
    svc::JournalHeader header;
    header.shardIndex = 0;
    header.shardCount = 2;
    header.gridPoints = 6;
    header.shardPoints = 3;
    header.grid = "g";

    const std::string dup = dir + "/dup.mcsj";
    {
        svc::JournalWriter writer = svc::JournalWriter::create(dup, header);
        writer.append(2, "x");
        writer.append(2, "y");
        writer.close();
    }
    EXPECT_THROW(svc::scanJournal(dup), FatalError);

    const std::string foreign = dir + "/foreign.mcsj";
    {
        svc::JournalWriter writer =
            svc::JournalWriter::create(foreign, header);
        writer.append(3, "odd index in an even shard");
        writer.close();
    }
    EXPECT_THROW(svc::scanJournal(foreign), FatalError);
}

TEST(SvcJournal, OtherFormatVersionsAreRefused)
{
    // A journal of the previous format (version 1) has the same magic
    // and a valid CRC; it must be refused, never spliced.
    const std::string dir = makeTempDir();
    const std::string path = dir + "/v1.mcsj";
    svc::JournalHeader header;
    header.gridPoints = 1;
    header.shardPoints = 1;
    svc::JournalWriter::create(path, header).close();
    std::string head = slurp(path);
    ASSERT_EQ(head.size(), svc::journalHeaderBytes);
    head[4] = 1; // version, little-endian u16
    head[5] = 0;
    std::vector<std::uint8_t> bytes(head.begin(), head.end() - 4);
    trace::putU32(bytes, trace::crc32(bytes.data(), bytes.size()));
    writeBytes(path, std::string(bytes.begin(), bytes.end()));
    try {
        svc::scanJournal(path);
        ADD_FAILURE() << "a version-1 journal was accepted";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("version 1"),
                  std::string::npos)
            << err.what();
    }
}

TEST(SvcJournal, TornTailsRecoverAtEveryCut)
{
    const std::string dir = makeTempDir();
    const std::string path = dir + "/full.mcsj";

    svc::JournalHeader header;
    header.shardCount = 1;
    header.gridPoints = 8;
    header.shardPoints = 8;
    header.grid = "g";

    const std::array<std::string, 4> payloads = {
        "alpha", "", std::string(300, 'z'), "{\"k\":\"v\"}"};
    std::vector<std::size_t> boundaries; // valid sizes after each frame
    {
        svc::JournalWriter writer = svc::JournalWriter::create(path, header);
        std::size_t size = svc::journalHeaderBytes;
        boundaries.push_back(size);
        for (std::size_t i = 0; i < payloads.size(); ++i) {
            writer.append(static_cast<std::uint32_t>(i), payloads[i]);
            size += svc::frameHeaderBytes + payloads[i].size();
            boundaries.push_back(size);
        }
        writer.close();
    }
    const std::string full = slurp(path);
    ASSERT_EQ(full.size(), boundaries.back());

    // Cut the file at seeded random offsets (plus every exact frame
    // boundary) and demand the scan recovers exactly the fully-flushed
    // frames -- the SIGKILL-mid-write model.
    Rng rng(20260808);
    std::vector<std::size_t> cuts = boundaries;
    for (int i = 0; i < 24; ++i) {
        cuts.push_back(svc::journalHeaderBytes +
                       rng.below(full.size() - svc::journalHeaderBytes));
    }
    for (const std::size_t cut : cuts) {
        const std::string torn_path = dir + "/torn.mcsj";
        writeBytes(torn_path, full.substr(0, cut));

        const svc::JournalScan scan = svc::scanJournal(torn_path);
        EXPECT_FALSE(scan.headerTorn);
        std::size_t want_frames = 0;
        while (want_frames + 1 < boundaries.size() &&
               boundaries[want_frames + 1] <= cut)
            ++want_frames;
        EXPECT_EQ(scan.frames.size(), want_frames) << "cut=" << cut;
        EXPECT_EQ(scan.validBytes, boundaries[want_frames]);
        EXPECT_EQ(scan.tornBytes, cut - boundaries[want_frames]);

        // Resume truncates the garbage and appends cleanly.
        svc::JournalWriter writer =
            svc::JournalWriter::resume(torn_path, scan.validBytes);
        writer.append(7, "resumed");
        writer.close();
        const svc::JournalScan again = svc::scanJournal(torn_path);
        ASSERT_EQ(again.frames.size(), want_frames + 1);
        EXPECT_EQ(again.frames.back().index, 7u);
        EXPECT_EQ(again.frames.back().payload, "resumed");
        EXPECT_EQ(again.tornBytes, 0u);
    }

    // A corrupt byte inside the last frame's payload drops exactly that
    // frame (CRC), keeping everything before it.
    std::string flipped = full;
    flipped[flipped.size() - 2] ^= 0x40;
    const std::string flip_path = dir + "/flip.mcsj";
    writeBytes(flip_path, flipped);
    const svc::JournalScan scan = svc::scanJournal(flip_path);
    EXPECT_EQ(scan.frames.size(), payloads.size() - 1);
    EXPECT_EQ(scan.validBytes, boundaries[payloads.size() - 1]);

    // A file shorter than a header is a torn header: zero recorded
    // points, recreate.
    const std::string stub_path = dir + "/stub.mcsj";
    writeBytes(stub_path, full.substr(0, 17));
    const svc::JournalScan stub = svc::scanJournal(stub_path);
    EXPECT_TRUE(stub.headerTorn);
    EXPECT_TRUE(stub.frames.empty());
}

TEST(SvcResume, SeededCutsResumeToByteIdenticalMerge)
{
    // Run both shards of a 2-shard plan, then cut shard 0's journal at
    // seeded offsets and at the header boundaries (64, 63, 1 and 0
    // bytes) -- a kill at that byte -- or corrupt its last frame. Each
    // resume must skip exactly the frames that survived, re-run exactly
    // the rest, and merge byte-identical to the plain run.
    const std::string ref = referenceDoc().dump();
    const std::string dir = makeTempDir();
    const svc::ShardPlan plan = miniPlan(2, 0);
    const svc::ShardPlan sibling = miniPlan(2, 1);
    ASSERT_EQ(svc::runShard(sibling, dir, quiet()).completedPoints, 3u);
    const svc::ShardRun first = svc::runShard(plan, dir, quiet());
    EXPECT_EQ(first.resumedPoints, 0u);
    EXPECT_EQ(first.completedPoints, 3u);
    EXPECT_EQ(first.failedJobs, 0u);
    EXPECT_EQ(mergedDoc(plan, dir).dump(), ref);

    const std::string path = plan.journalPath(dir, 0);
    const std::string full = slurp(path);
    std::vector<std::size_t> boundaries = {svc::journalHeaderBytes};
    for (const svc::JournalFrame &frame : svc::scanJournal(path).frames)
        boundaries.push_back(boundaries.back() + svc::frameHeaderBytes +
                             frame.payload.size());
    ASSERT_EQ(boundaries.back(), full.size());

    Rng rng(20261017);
    std::vector<std::size_t> cuts = {svc::journalHeaderBytes,
                                     svc::journalHeaderBytes - 1, 1, 0};
    for (int i = 0; i < 4; ++i)
        cuts.push_back(rng.below(full.size()));
    for (const std::size_t cut : cuts) {
        writeBytes(path, full.substr(0, cut));
        std::size_t kept = 0;
        while (kept + 1 < boundaries.size() && boundaries[kept + 1] <= cut)
            ++kept;
        const svc::ShardRun run = svc::runShard(plan, dir, quiet());
        EXPECT_EQ(run.resumedPoints, kept) << "cut=" << cut;
        EXPECT_EQ(run.completedPoints, 3u - kept) << "cut=" << cut;
        EXPECT_EQ(mergedDoc(plan, dir).dump(), ref) << "cut=" << cut;
    }

    // A flipped byte in the last frame's stored CRC (frame offset 12)
    // drops exactly that frame; resume re-runs exactly that point.
    std::string flipped = full;
    flipped[boundaries[2] + 12] ^= 0x01;
    writeBytes(path, flipped);
    const svc::ShardRun repaired = svc::runShard(plan, dir, quiet());
    EXPECT_EQ(repaired.resumedPoints, 2u);
    EXPECT_EQ(repaired.completedPoints, 1u);
    EXPECT_EQ(mergedDoc(plan, dir).dump(), ref);

    // Finishing again is an idempotent no-op.
    const svc::ShardRun again = svc::runShard(plan, dir, quiet());
    EXPECT_EQ(again.resumedPoints, 3u);
    EXPECT_EQ(again.completedPoints, 0u);
}

TEST(SvcMerge, IdenticalAcrossShardAndThreadCounts)
{
    const std::string ref_json = referenceDoc().dump();
    const std::string ref_csv = exp::documentCsv(referenceDoc());
    for (const std::uint32_t shards : {1u, 3u, 6u}) {
        const std::string dir = makeTempDir();
        for (std::uint32_t k = 0; k < shards; ++k) {
            const svc::ShardRun run = svc::runShard(
                miniPlan(shards, k), dir, quiet(shards == 1 ? 3 : 1));
            EXPECT_EQ(run.completedPoints, 6u / shards);
        }
        const exp::Json doc = mergedDoc(miniPlan(shards), dir);
        EXPECT_EQ(doc.dump(), ref_json) << shards << " shard(s)";
        EXPECT_EQ(exp::documentCsv(doc), ref_csv) << shards << " shard(s)";
    }
}

TEST(SvcMerge, IncompleteCoverageAndForeignJournals)
{
    const std::string dir = makeTempDir();
    const svc::ShardPlan plan = miniPlan(2, 1);

    // Nothing journaled, then one of two shards: coverage is counted,
    // and no job array is built until every point is covered.
    svc::MergeResult merged = svc::mergeJournals(plan, dir);
    EXPECT_EQ(merged.coveredPoints, 0u);
    ASSERT_EQ(svc::runShard(plan, dir, quiet()).completedPoints, 3u);
    merged = svc::mergeJournals(plan, dir);
    EXPECT_EQ(merged.coveredPoints, 3u);
    EXPECT_EQ(merged.jobs.size(), 0u);
    EXPECT_NO_THROW(svc::checkJournals(plan, dir));

    // Another shard count, or another point set under the same file
    // name, is refused before anything runs, and the journal is left
    // byte-unchanged.
    const std::string path = plan.journalPath(dir, 1);
    const std::string before = slurp(path);
    EXPECT_THROW(svc::checkJournals(miniPlan(3), dir), FatalError);
    svc::ShardPlan other = miniPlan(2, 1);
    other.grid.points[1].cacheBytes *= 2;
    EXPECT_THROW(svc::checkJournals(other, dir), FatalError);
    EXPECT_THROW(svc::runShard(other, dir, quiet()), FatalError);
    EXPECT_THROW(svc::mergeJournals(other, dir), FatalError);
    EXPECT_EQ(slurp(path), before);
}

TEST(SvcAtomicFile, WritesWholeFilesAndLeavesNoTemp)
{
    const std::string dir = makeTempDir();
    const std::string path = dir + "/doc.json";
    svc::writeFileAtomic(path, "first\n");
    EXPECT_EQ(slurp(path), "first\n");
    svc::writeFileAtomic(path, "second, longer content\n");
    EXPECT_EQ(slurp(path), "second, longer content\n");
    EXPECT_FALSE(svc::journalExists(path + ".tmp"));
    // Unwritable destination reports, never leaves a temp behind.
    EXPECT_THROW(svc::writeFileAtomic("/nonexistent-dir/x/y", "z"),
                 FatalError);

    // ensureDirectory is mkdir -p: nested creation, idempotent, and a
    // file in the way is a clear error.
    const std::string nested = dir + "/a/b/c";
    svc::ensureDirectory(nested);
    svc::ensureDirectory(nested);
    svc::writeFileAtomic(nested + "/doc.json", "x");
    EXPECT_EQ(slurp(nested + "/doc.json"), "x");
    EXPECT_THROW(svc::ensureDirectory(nested + "/doc.json"), FatalError);
}

/** How a spawned sweep_runner ended, and what it said on stderr. */
struct Spawned
{
    int status = 0;
    std::string stderrText;
    std::size_t progressLines = 0;
};

/**
 * Run the sweep_runner binary with @p args, stdout discarded and
 * stderr captured. With @p kill_after > 0 it is SIGKILLed as soon as
 * that many progress lines ("[n/N] ...") have appeared. With
 * @p fsize_limit > 0 it runs under RLIMIT_FSIZE with SIGXFSZ ignored,
 * so a write past the limit comes up short instead of killing it.
 */
Spawned
spawnSweep(const std::vector<std::string> &args, std::size_t kill_after = 0,
           rlim_t fsize_limit = 0)
{
    const std::string bin = MCSIM_SWEEP_BIN;
    std::vector<char *> argv;
    argv.push_back(const_cast<char *>(bin.c_str()));
    for (const std::string &arg : args)
        argv.push_back(const_cast<char *>(arg.c_str()));
    argv.push_back(nullptr);

    Spawned result;
    int fds[2];
    if (::pipe(fds) != 0) {
        ADD_FAILURE() << "pipe failed";
        return result;
    }
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::dup2(fds[1], 2);
        ::close(fds[0]);
        ::close(fds[1]);
        const int devnull = ::open("/dev/null", O_WRONLY);
        ::dup2(devnull, 1);
        if (fsize_limit > 0) {
            std::signal(SIGXFSZ, SIG_IGN);
            const struct rlimit limit = {fsize_limit, fsize_limit};
            ::setrlimit(RLIMIT_FSIZE, &limit);
        }
        ::execv(bin.c_str(), argv.data());
        ::_exit(127);
    }
    ::close(fds[1]);
    std::FILE *in = ::fdopen(fds[0], "r");
    char *line = nullptr;
    std::size_t cap = 0;
    while (::getline(&line, &cap, in) > 0) {
        result.stderrText += line;
        if (line[0] == '[' && ++result.progressLines == kill_after)
            ::kill(pid, SIGKILL);
    }
    std::free(line);
    std::fclose(in);
    ::waitpid(pid, &result.status, 0);
    return result;
}

bool
exitedWith(const Spawned &run, int code)
{
    return WIFEXITED(run.status) && WEXITSTATUS(run.status) == code;
}

/** A plain (unjournaled) quick-grid run's CSV, computed once per suite. */
const std::string &
plainQuickCsv()
{
    static const std::string csv = [] {
        const std::string dir = makeTempDir();
        const Spawned run = spawnSweep({"--grid", "quick", "--no-progress",
                                        "--out", "", "--csv",
                                        dir + "/plain.csv"});
        EXPECT_TRUE(exitedWith(run, 0)) << run.stderrText;
        return slurp(dir + "/plain.csv");
    }();
    return csv;
}

/** Resume the quick grid from @p journal at 4 threads; its JSON must be
 *  the committed golden and its CSV a plain run's. */
void
expectResumeMatchesPlainRun(const std::string &dir,
                            const std::string &journal)
{
    const Spawned resumed = spawnSweep(
        {"--grid", "quick", "--journal", journal, "--threads", "4",
         "--no-progress", "--out", dir + "/quick.json", "--csv",
         dir + "/quick.csv"});
    EXPECT_TRUE(exitedWith(resumed, 0)) << resumed.stderrText;
    EXPECT_EQ(slurp(dir + "/quick.json"),
              slurp(std::string(MCSIM_GOLDEN_DIR) + "/quick.json"));
    EXPECT_EQ(slurp(dir + "/quick.csv"), plainQuickCsv());
}

TEST(SvcBinary, SigkilledRunResumesToTheGolden)
{
    // The real-SIGKILL gate: the sink appends and flushes each frame
    // before its progress line prints, so a kill after 4 lines leaves
    // at least 4 frames, and the resumed run must still produce the
    // plain run's bytes.
    const std::string dir = makeTempDir();
    const std::string journal = dir + "/J";
    const Spawned killed =
        spawnSweep({"--grid", "quick", "--journal", journal, "--threads",
                    "1", "--out", dir + "/quick.json"},
                   4);
    ASSERT_TRUE(WIFSIGNALED(killed.status)) << killed.stderrText;
    EXPECT_EQ(WTERMSIG(killed.status), SIGKILL);
    const std::size_t frames =
        svc::scanJournal(journal + "/quick.s000-of-001.mcsj").frames.size();
    EXPECT_GE(frames, 4u);
    EXPECT_LT(frames, 28u);

    expectResumeMatchesPlainRun(dir, journal);
}

TEST(SvcBinary, ShortJournalWriteFailsCleanlyAndResumes)
{
    // A file-size limit of a few KB cuts a frame write short: one line
    // naming the journal, exit 1 (never an abort), the flushed frames
    // kept, and an unlimited resume producing the plain run's bytes.
    const std::string dir = makeTempDir();
    const std::string journal = dir + "/J";
    const std::string path = journal + "/quick.s000-of-001.mcsj";
    const Spawned failed =
        spawnSweep({"--grid", "quick", "--journal", journal,
                    "--no-progress", "--out", ""},
                   0, 5 * 1024);
    EXPECT_TRUE(exitedWith(failed, 1)) << failed.stderrText;
    const std::string want =
        "sweep_runner: svc: cannot append to journal '" + path + "'\n";
    EXPECT_NE(failed.stderrText.find(want), std::string::npos)
        << failed.stderrText;
    EXPECT_EQ(std::count(failed.stderrText.begin(),
                         failed.stderrText.end(), '\n'),
              2)
        << failed.stderrText; // the grid banner and the error
    const svc::JournalScan scan = svc::scanJournal(path);
    EXPECT_LT(scan.frames.size(), 28u);

    expectResumeMatchesPlainRun(dir, journal);
}

TEST(SvcBinary, ForeignJournalsAreRefusedBeforeAnyJob)
{
    // A journal of another plan -- another shard count, or another
    // geometry under the same file name -- is exit 2 with one line
    // naming it, before any job runs, and stays byte-unchanged.
    const exp::Grid quick = exp::namedGrid("quick", exp::Scale::Quick);
    struct Case
    {
        svc::ShardPlan writer;
        std::vector<std::string> flags;
    };
    const std::vector<Case> cases = {
        {{quick, exp::Scale::Scaled, 0, 2}, {"--shard", "0/3"}},
        {{quick, exp::Scale::Scaled, 0, 1}, {"--procs", "4"}},
    };
    for (const Case &c : cases) {
        const std::string dir = makeTempDir();
        const std::string path = c.writer.journalPath(dir, 0);
        svc::JournalWriter::create(path, c.writer.journalHeader(0)).close();
        const std::string before = slurp(path);

        std::vector<std::string> args = {"--grid", "quick", "--journal",
                                         dir, "--out", ""};
        args.insert(args.end(), c.flags.begin(), c.flags.end());
        const Spawned run = spawnSweep(args);
        EXPECT_TRUE(exitedWith(run, 2)) << run.stderrText;
        EXPECT_EQ(std::count(run.stderrText.begin(), run.stderrText.end(),
                             '\n'),
                  1)
            << run.stderrText;
        EXPECT_NE(run.stderrText.find(path), std::string::npos)
            << run.stderrText;
        EXPECT_EQ(slurp(path), before);
        EXPECT_FALSE(svc::journalExists(dir + "/quick.s000-of-003.mcsj"));
    }
}

} // namespace
