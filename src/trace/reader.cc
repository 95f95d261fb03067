#include "trace/reader.hh"

#include <algorithm>
#include <unordered_set>

#include "mem/functional_memory.hh"
#include "sim/logging.hh"

namespace mcsim::trace
{

void
MemorySource::read(std::uint64_t offset, void *out, std::size_t n) const
{
    if (offset + n > buffer.size())
        fatal("trace: read past end of trace buffer (truncated trace)");
    std::copy_n(buffer.data() + offset, n, static_cast<std::uint8_t *>(out));
}

FileSource::FileSource(const std::string &p) : path(p)
{
    file = std::fopen(path.c_str(), "rb");
    if (!file)
        fatal("trace: cannot open trace file '%s'", path.c_str());
    if (std::fseek(file, 0, SEEK_END) != 0)
        fatal("trace: cannot seek in '%s'", path.c_str());
    const long end = std::ftell(file);
    if (end < 0)
        fatal("trace: cannot size '%s'", path.c_str());
    fileSize = static_cast<std::uint64_t>(end);
}

FileSource::~FileSource()
{
    if (file)
        std::fclose(file);
}

void
FileSource::read(std::uint64_t offset, void *out, std::size_t n) const
{
    if (offset + n > fileSize)
        fatal("trace: read past end of '%s' (truncated trace)",
              path.c_str());
    if (std::fseek(file, static_cast<long>(offset), SEEK_SET) != 0 ||
        std::fread(out, 1, n, file) != n) {
        fatal("trace: read error in '%s'", path.c_str());
    }
}

TraceReader::TraceReader(std::shared_ptr<const TraceSource> src)
    : source(std::move(src))
{
    MCSIM_ASSERT(source != nullptr, "trace reader needs a source");
    if (source->size() < headerBytes)
        fatal("trace: truncated trace file (no complete header)");
    std::array<std::uint8_t, headerBytes> raw{};
    source->read(0, raw.data(), raw.size());
    head = decodeHeader(raw.data());

    blocksPerProc.resize(head.procCount);
    recordsPerProc.assign(head.procCount, 0);

    const std::uint64_t fileSize = source->size();
    std::uint64_t offset = headerBytes;
    std::uint64_t indexed = 0;
    while (offset < fileSize) {
        if (fileSize - offset < blockHeaderBytes) {
            fatal("trace: truncated trace file (partial block header at "
                  "offset %llu)",
                  static_cast<unsigned long long>(offset));
        }
        std::array<std::uint8_t, blockHeaderBytes> bh{};
        source->read(offset, bh.data(), bh.size());
        if (getU32(bh.data()) != blockMagic) {
            fatal("trace: bad block magic at offset %llu (corrupt file)",
                  static_cast<unsigned long long>(offset));
        }
        const std::uint32_t proc = getU32(bh.data() + 4);
        if (proc >= head.procCount) {
            fatal("trace: out-of-range proc id %u in block header "
                  "(trace declares %u procs)", proc, head.procCount);
        }
        BlockRef ref;
        ref.records = getU32(bh.data() + 8);
        ref.bytes = getU32(bh.data() + 12);
        ref.crc = getU32(bh.data() + 16);
        ref.payloadOffset = offset + blockHeaderBytes;
        if (ref.records == 0 || ref.records > blockRecordLimit)
            fatal("trace: implausible block record count %u", ref.records);
        if (ref.bytes > maxBlockPayload)
            fatal("trace: block payload size %u exceeds format limit",
                  ref.bytes);
        if (fileSize - ref.payloadOffset < ref.bytes) {
            fatal("trace: truncated trace file (block payload cut short "
                  "at offset %llu)",
                  static_cast<unsigned long long>(ref.payloadOffset));
        }
        blocksPerProc[proc].push_back(ref);
        recordsPerProc[proc] += ref.records;
        indexed += ref.records;
        offset = ref.payloadOffset + ref.bytes;
    }
    if (indexed != head.totalRecords) {
        fatal("trace: record count mismatch (header declares %llu, "
              "blocks hold %llu)",
              static_cast<unsigned long long>(head.totalRecords),
              static_cast<unsigned long long>(indexed));
    }
}

TraceReader::Stream::Stream(std::shared_ptr<const TraceSource> src,
                            std::vector<BlockRef> blockList, unsigned proc)
    : source(std::move(src)), blocks(std::move(blockList))
{
    context = strprintf("proc %u", proc);
}

void
TraceReader::Stream::loadBlock()
{
    const BlockRef &ref = blocks[blockIndex];
    payload.resize(ref.bytes);
    source->read(ref.payloadOffset, payload.data(), payload.size());
    if (crc32(payload.data(), payload.size()) != ref.crc) {
        fatal("trace: block payload CRC mismatch (%s, block %zu)",
              context.c_str(), blockIndex);
    }
    state = CodecState{};
    pos = 0;
    left = ref.records;
    blockIndex += 1;
}

bool
TraceReader::Stream::next(Record &out)
{
    if (left == 0) {
        if (blockIndex >= blocks.size())
            return false;
        loadBlock();
    }
    out = decodeRecord(payload.data(), payload.size(), pos, state,
                       context.c_str());
    left -= 1;
    if (left == 0 && pos != payload.size()) {
        fatal("trace: %zu trailing payload bytes after the last record "
              "(%s)", payload.size() - pos, context.c_str());
    }
    return true;
}

TraceReader::Stream
TraceReader::stream(unsigned proc) const
{
    MCSIM_ASSERT(proc < head.procCount, "stream(): proc out of range");
    return Stream(source, blocksPerProc[proc], proc);
}

TraceSummary
TraceReader::validate() const
{
    TraceSummary sum;

    // Content hash: FNV-1a over the complete byte stream, chunked so
    // large traces never materialize (same constants as sim/random.hh).
    std::uint64_t hash = 0xcbf29ce484222325ull;
    const std::uint64_t fileSize = source->size();
    std::vector<std::uint8_t> chunk(64 * 1024);
    for (std::uint64_t off = 0; off < fileSize;) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(chunk.size(), fileSize - off));
        source->read(off, chunk.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
            hash ^= chunk[i];
            hash *= 0x100000001b3ull;
        }
        off += n;
    }
    sum.contentHash = hash;

    for (unsigned p = 0; p < head.procCount; ++p) {
        Stream s = stream(p);
        Record rec;
        // Mirror the replaying processor's token bookkeeping exactly:
        // tokens are handed out sequentially per Load (cpu/processor.cc
        // nextToken), and a Use of a dead token would trip a processor
        // assert -- reject it here instead, before any machine exists.
        std::uint64_t nextToken = 1;
        std::unordered_set<std::uint64_t> live;
        std::uint64_t index = 0;
        while (s.next(rec)) {
            sum.records += 1;
            sum.perKind[static_cast<std::size_t>(rec.kind)] += 1;
            switch (rec.kind) {
              case OpKind::Load:
                live.insert(nextToken);
                nextToken += 1;
                break;
              case OpKind::Use:
                if (live.erase(rec.token) == 0) {
                    fatal("trace: proc %u record %llu uses load token "
                          "%llu that is not live", p,
                          static_cast<unsigned long long>(index),
                          static_cast<unsigned long long>(rec.token));
                }
                break;
              case OpKind::Exec:
              case OpKind::LoadUse:
              case OpKind::Store:
              case OpKind::SyncLoad:
              case OpKind::SyncRmw:
              case OpKind::SyncStore:
              case OpKind::Fence:
                break;
            }
            switch (rec.kind) {
              case OpKind::Load:
              case OpKind::LoadUse:
              case OpKind::Store:
              case OpKind::SyncLoad:
              case OpKind::SyncRmw:
              case OpKind::SyncStore:
                if (rec.addr % rec.width != 0) {
                    fatal("trace: proc %u record %llu has misaligned "
                          "address 0x%llx (width %u)", p,
                          static_cast<unsigned long long>(index),
                          static_cast<unsigned long long>(rec.addr),
                          static_cast<unsigned>(rec.width));
                }
                // Written so that an end near 2^64 cannot wrap past it.
                if (rec.addr > mem::FunctionalMemory::segmentBytes -
                                   rec.width) {
                    fatal("trace: proc %u record %llu accesses address "
                          "0x%llx (width %u) past the segment bound 0x%llx",
                          p, static_cast<unsigned long long>(index),
                          static_cast<unsigned long long>(rec.addr),
                          static_cast<unsigned>(rec.width),
                          static_cast<unsigned long long>(
                              mem::FunctionalMemory::segmentBytes));
                }
                sum.addrLimit =
                    std::max<Addr>(sum.addrLimit, rec.addr + rec.width);
                break;
              case OpKind::Exec:
              case OpKind::Use:
              case OpKind::Fence:
                break;
            }
            index += 1;
        }
    }
    return sum;
}

} // namespace mcsim::trace
