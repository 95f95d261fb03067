#include "svc/journal.hh"

#include <cstring>
#include <unistd.h>
#include <utility>

#include <set>

#include "sim/logging.hh"
#include "trace/format.hh"

namespace mcsim::svc
{

namespace
{

using trace::crc32;
using trace::getU16;
using trace::getU32;
using trace::getU64;
using trace::putU16;
using trace::putU32;
using trace::putU64;

/** Bytes reserved for the grid name in the header (NUL padded). */
constexpr std::size_t gridNameBytes = 24;

/** Read the whole of @p path; fatal() when it cannot be opened. */
std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (file == nullptr)
        fatal("svc: cannot open journal '%s'", path.c_str());
    std::vector<std::uint8_t> data;
    std::uint8_t buf[1 << 16];
    for (;;) {
        const std::size_t got = std::fread(buf, 1, sizeof(buf), file);
        data.insert(data.end(), buf, buf + got);
        if (got < sizeof(buf))
            break;
    }
    const bool bad = std::ferror(file) != 0;
    std::fclose(file);
    if (bad)
        fatal("svc: read error on journal '%s'", path.c_str());
    return data;
}

/** CRC over a frame: the 12 leading header bytes, then the payload. */
std::uint32_t
frameCrc(const std::uint8_t *head, const void *payload, std::size_t size)
{
    return crc32(payload, size, crc32(head, 12));
}

/** Serialize @p header into its fixed 64-byte form (CRC included). */
std::vector<std::uint8_t>
encodeJournalHeader(const JournalHeader &header)
{
    std::vector<std::uint8_t> out;
    out.reserve(journalHeaderBytes);
    putU32(out, journalMagic);
    putU16(out, journalVersion);
    putU16(out, 0);
    putU32(out, header.shardIndex);
    putU32(out, header.shardCount);
    putU32(out, header.gridPoints);
    putU32(out, header.shardPoints);
    putU64(out, header.planFingerprint);
    char label[gridNameBytes] = {};
    // Truncate silently: the name is descriptive, the fingerprint is
    // what resume and merge actually authenticate against.
    std::strncpy(label, header.grid.c_str(), gridNameBytes - 1);
    out.insert(out.end(), label, label + gridNameBytes);
    putU32(out, 0);
    putU32(out, crc32(out.data(), out.size()));
    return out;
}

/**
 * Parse and validate the fixed header at @p data (journalHeaderBytes
 * long). fatal() on bad magic, another format version, a CRC mismatch
 * or an impossible shard; @p context names the file.
 */
JournalHeader
decodeJournalHeader(const std::uint8_t *data, const char *context)
{
    if (getU32(data) != journalMagic)
        fatal("svc: bad magic in '%s' (not a checkpoint journal)",
              context);
    if (getU16(data + 4) != journalVersion) {
        fatal("svc: journal '%s' has version %u, this build reads %u",
              context, static_cast<unsigned>(getU16(data + 4)),
              static_cast<unsigned>(journalVersion));
    }
    const std::uint32_t stored = getU32(data + journalHeaderBytes - 4);
    if (crc32(data, journalHeaderBytes - 4) != stored)
        fatal("svc: journal '%s' header CRC mismatch", context);

    JournalHeader header;
    header.shardIndex = getU32(data + 8);
    header.shardCount = getU32(data + 12);
    header.gridPoints = getU32(data + 16);
    header.shardPoints = getU32(data + 20);
    header.planFingerprint = getU64(data + 24);
    const char *label = reinterpret_cast<const char *>(data + 32);
    header.grid.assign(label, strnlen(label, gridNameBytes));
    if (header.shardCount == 0 || header.shardIndex >= header.shardCount)
        fatal("svc: journal '%s' claims shard %u of %u", context,
              header.shardIndex, header.shardCount);
    return header;
}

} // namespace

bool
journalExists(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (file == nullptr)
        return false;
    std::fclose(file);
    return true;
}

void
requireMatchingHeader(const JournalHeader &got, const JournalHeader &want,
                      const std::string &path)
{
    if (got.planFingerprint != want.planFingerprint) {
        fatal("svc: journal '%s' belongs to plan %016llx, this plan is "
              "%016llx (grid, scale, overrides, fault preset or shard "
              "count differ; use a fresh journal directory or the "
              "original flags)",
              path.c_str(),
              static_cast<unsigned long long>(got.planFingerprint),
              static_cast<unsigned long long>(want.planFingerprint));
    }
    if (got.shardIndex != want.shardIndex ||
        got.shardCount != want.shardCount ||
        got.gridPoints != want.gridPoints ||
        got.shardPoints != want.shardPoints) {
        fatal("svc: journal '%s' header disagrees with the plan (shard "
              "%u/%u, %u of %u points vs shard %u/%u, %u of %u points)",
              path.c_str(), got.shardIndex, got.shardCount,
              got.shardPoints, got.gridPoints, want.shardIndex,
              want.shardCount, want.shardPoints, want.gridPoints);
    }
}

JournalScan
scanJournal(const std::string &path)
{
    const std::vector<std::uint8_t> data = readFile(path);

    JournalScan scan;
    if (data.size() < journalHeaderBytes) {
        // Killed between creation and the header flush: nothing was
        // recorded, so the caller simply recreates the journal.
        scan.headerTorn = true;
        scan.tornBytes = data.size();
        return scan;
    }
    scan.header = decodeJournalHeader(data.data(), path.c_str());
    scan.validBytes = journalHeaderBytes;

    std::set<std::uint32_t> seen;
    std::size_t pos = journalHeaderBytes;
    for (;;) {
        // Anything that does not parse as a complete, CRC-clean frame
        // ends the valid region: the writer appends one flushed frame
        // at a time, so only the final in-flight frame can be torn.
        if (pos + frameHeaderBytes > data.size())
            break;
        const std::uint8_t *head = data.data() + pos;
        if (getU32(head) != frameMagic)
            break;
        const std::uint32_t index = getU32(head + 4);
        const std::uint32_t size = getU32(head + 8);
        if (size > maxFramePayload)
            break;
        if (pos + frameHeaderBytes + size > data.size())
            break;
        const std::uint8_t *payload = head + frameHeaderBytes;
        if (frameCrc(head, payload, size) != getU32(head + 12))
            break;

        // Past the CRC, malformation is structural corruption, not a
        // torn tail -- refuse to resume rather than silently drop work.
        if (index >= scan.header.gridPoints) {
            fatal("svc: journal '%s' frame for point %u, grid has %u",
                  path.c_str(), index, scan.header.gridPoints);
        }
        if (index % scan.header.shardCount != scan.header.shardIndex) {
            fatal("svc: journal '%s' (shard %u of %u) holds foreign "
                  "point %u",
                  path.c_str(), scan.header.shardIndex,
                  scan.header.shardCount, index);
        }
        if (!seen.insert(index).second)
            fatal("svc: journal '%s' records point %u twice",
                  path.c_str(), index);
        JournalFrame frame;
        frame.index = index;
        frame.payload.assign(reinterpret_cast<const char *>(payload),
                             size);
        scan.frames.push_back(std::move(frame));
        pos += frameHeaderBytes + size;
        scan.validBytes = pos;
    }
    scan.tornBytes = data.size() - scan.validBytes;
    return scan;
}

JournalWriter::JournalWriter(std::string path_, std::FILE *file_)
    : path(std::move(path_)), file(file_)
{
}

JournalWriter::JournalWriter(JournalWriter &&other) noexcept
    : path(std::move(other.path)), file(other.file)
{
    other.file = nullptr;
}

JournalWriter::~JournalWriter()
{
    if (file != nullptr)
        std::fclose(file);
}

JournalWriter
JournalWriter::create(const std::string &path, const JournalHeader &header)
{
    std::FILE *file = std::fopen(path.c_str(), "wb");
    if (file == nullptr)
        fatal("svc: cannot create journal '%s'", path.c_str());
    const std::vector<std::uint8_t> bytes = encodeJournalHeader(header);
    if (std::fwrite(bytes.data(), 1, bytes.size(), file) != bytes.size() ||
        std::fflush(file) != 0) {
        std::fclose(file);
        fatal("svc: cannot write journal header to '%s'", path.c_str());
    }
    return JournalWriter(path, file);
}

JournalWriter
JournalWriter::resume(const std::string &path, std::uint64_t valid_bytes)
{
    // Drop the torn tail first so the next frame lands exactly after
    // the last valid one; "ab" then keeps every write at end-of-file.
    if (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0)
        fatal("svc: cannot truncate journal '%s'", path.c_str());
    std::FILE *file = std::fopen(path.c_str(), "ab");
    if (file == nullptr)
        fatal("svc: cannot reopen journal '%s'", path.c_str());
    return JournalWriter(path, file);
}

void
JournalWriter::append(std::uint32_t index, const std::string &payload)
{
    if (file == nullptr)
        fatal("svc: append to closed journal '%s'", path.c_str());
    if (payload.size() > maxFramePayload)
        fatal("svc: journal '%s' payload of %zu bytes exceeds limit",
              path.c_str(), payload.size());
    std::vector<std::uint8_t> bytes;
    bytes.reserve(frameHeaderBytes + payload.size());
    putU32(bytes, frameMagic);
    putU32(bytes, index);
    putU32(bytes, static_cast<std::uint32_t>(payload.size()));
    putU32(bytes, frameCrc(bytes.data(), payload.data(), payload.size()));
    bytes.insert(bytes.end(), payload.begin(), payload.end());
    // One write, one flush: the frame reaches the OS before the point
    // counts as checkpointed, so SIGKILL can only lose in-flight work.
    if (std::fwrite(bytes.data(), 1, bytes.size(), file) != bytes.size() ||
        std::fflush(file) != 0)
        fatal("svc: cannot append to journal '%s'", path.c_str());
}

void
JournalWriter::close()
{
    if (file == nullptr)
        return;
    const bool ok = std::fclose(file) == 0;
    file = nullptr;
    if (!ok)
        fatal("svc: close of journal '%s' reported a write error",
              path.c_str());
}

} // namespace mcsim::svc
