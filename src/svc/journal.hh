/**
 * @file
 * Checkpoint journals: the crash-tolerant record of a shard's completed
 * sweep points (DESIGN.md section 15).
 *
 * A journal is a 64-byte header followed by CRC-framed append-only
 * frames, one per completed point, reusing the MCST framing discipline
 * from src/trace/: every frame is length-prefixed and CRC-checked, so a
 * reader never trusts a byte the writer did not finish. The writer
 * appends a frame with a single write and flushes it to the OS before
 * returning, so a SIGKILL at any instant loses at most the in-flight
 * point(s): the scan finds every fully-flushed frame, detects a torn
 * tail by its failed CRC or short length, and resume simply truncates
 * the garbage and re-runs the points that have no frame.
 *
 * Frame payloads are canonical JSON (exp::jobToJson dumps), so the
 * merge step can splice journaled results into a document
 * byte-identical to an uninterrupted run's.
 */

#ifndef MCSIM_SVC_JOURNAL_HH
#define MCSIM_SVC_JOURNAL_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace mcsim::svc
{

/** File magic: "MCSJ" as the first four bytes. */
constexpr std::uint32_t journalMagic = 0x4A53434Du;

/** Frame magic: "MCJF" leads every checkpoint frame. */
constexpr std::uint32_t frameMagic = 0x464A434Du;

/** Journal format version this build reads and writes. */
constexpr std::uint16_t journalVersion = 2;

/** Fixed size of the journal header, bytes. */
constexpr std::size_t journalHeaderBytes = 64;

/** Fixed size of a frame header, bytes. */
constexpr std::size_t frameHeaderBytes = 16;

/** Upper bound on one frame's payload; caps reader buffering. */
constexpr std::uint32_t maxFramePayload = 1u << 24;

/** Decoded journal header: which shard of which plan this file is. */
struct JournalHeader
{
    std::uint32_t shardIndex = 0;
    std::uint32_t shardCount = 1;
    /** Points in the whole grid / in this journal when complete. @{ */
    std::uint32_t gridPoints = 0;
    std::uint32_t shardPoints = 0;
    /** @} */
    /** ShardPlan::fingerprint() of the owning plan: a journal can only
     *  be resumed or merged against the exact plan that wrote it. */
    std::uint64_t planFingerprint = 0;
    /** Grid name, <= 23 chars (display; the fingerprint is the law). */
    std::string grid;
};

/** One recovered checkpoint frame. */
struct JournalFrame
{
    /** Grid-global point index this result belongs to. */
    std::uint32_t index = 0;
    /** Canonical JSON payload (exp::jobToJson dump). */
    std::string payload;
};

/** Everything a scan recovers from a journal file. */
struct JournalScan
{
    JournalHeader header;
    /** Valid frames in append order (completion order, not grid order;
     *  indices are unique -- a duplicate is structural corruption). */
    std::vector<JournalFrame> frames;
    /** One past the last valid frame: where resume appends. */
    std::uint64_t validBytes = 0;
    /** File exists but is shorter than a header: the writer was killed
     *  during creation. Zero points are recorded; recreate it. */
    bool headerTorn = false;
    /** Bytes of torn tail discarded past validBytes (diagnostics). */
    std::uint64_t tornBytes = 0;
};

/** True when @p path exists (journals live where the plan says). */
bool journalExists(const std::string &path);

/**
 * fatal() unless @p got is the exact header the plan expects for this
 * shard (fingerprint first -- its mismatch message explains what to
 * do about stale journals). Shared by resume and merge.
 */
void requireMatchingHeader(const JournalHeader &got,
                           const JournalHeader &want,
                           const std::string &path);

/**
 * Read and frame-check @p path: header, then every frame until the
 * first torn or corrupt one (which ends the valid region -- everything
 * after a bad frame is unreachable garbage by construction). fatal() on
 * an unreadable file, a full-size header with bad magic, another
 * format version or a CRC mismatch, an out-of-range or foreign index,
 * or a duplicate index; a torn tail is NOT fatal, it is the crash the
 * journal exists to absorb.
 */
JournalScan scanJournal(const std::string &path);

/**
 * Appends checkpoint frames. Create truncates and writes a fresh
 * header; resume truncates the torn tail found by a scan and appends
 * after the last valid frame. Each append is one write + flush, so a
 * frame is either fully visible to the next scan or entirely absent.
 */
class JournalWriter
{
  public:
    static JournalWriter create(const std::string &path,
                                const JournalHeader &header);
    static JournalWriter resume(const std::string &path,
                                std::uint64_t valid_bytes);
    ~JournalWriter();

    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;
    JournalWriter(JournalWriter &&other) noexcept;
    JournalWriter &operator=(JournalWriter &&) = delete;

    /** Append one completed point; fatal() on any I/O failure. */
    void append(std::uint32_t index, const std::string &payload);

    /** Flush and close; fatal() if the OS reports a write error. */
    void close();

  private:
    JournalWriter(std::string path, std::FILE *file);

    std::string path;
    std::FILE *file = nullptr;
};

} // namespace mcsim::svc

#endif // MCSIM_SVC_JOURNAL_HH
