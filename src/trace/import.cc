#include "trace/import.hh"

#include <cctype>
#include <cstdlib>
#include <utility>
#include <vector>

#include "mem/functional_memory.hh"
#include "sim/logging.hh"
#include "svc/atomic_file.hh"
#include "trace/reader.hh"

namespace mcsim::trace
{

namespace
{

/** One parsed transaction, in input order. */
struct Transaction
{
    unsigned proc = 0;
    bool write = false;
    Addr addr = 0;
};

/** Next token in @p line from @p pos; empty at end of line. */
std::string
nextToken(const std::string &line, std::size_t &pos)
{
    while (pos < line.size() &&
           std::isspace(static_cast<unsigned char>(line[pos])))
        ++pos;
    const std::size_t start = pos;
    while (pos < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[pos])))
        ++pos;
    return line.substr(start, pos - start);
}

/** Strict decimal parse; fatal() names the line. */
unsigned
parseProc(const std::string &token, std::uint64_t line_no)
{
    if (token.empty())
        fatal("trace import: line %llu: missing processor number",
              static_cast<unsigned long long>(line_no));
    for (char c : token) {
        if (!std::isdigit(static_cast<unsigned char>(c)))
            fatal("trace import: line %llu: bad processor '%s' "
                  "(expected a decimal number)",
                  static_cast<unsigned long long>(line_no),
                  token.c_str());
    }
    char *end = nullptr;
    const unsigned long value = std::strtoul(token.c_str(), &end, 10);
    if (*end != '\0' || value > 4096)
        fatal("trace import: line %llu: bad processor '%s'",
              static_cast<unsigned long long>(line_no), token.c_str());
    return static_cast<unsigned>(value);
}

/** Strict hex parse, optional 0x prefix; fatal() names the line. */
Addr
parseAddr(const std::string &token, std::uint64_t line_no)
{
    if (token.empty())
        fatal("trace import: line %llu: missing address",
              static_cast<unsigned long long>(line_no));
    std::string digits = token;
    if (digits.size() > 2 && digits[0] == '0' &&
        (digits[1] == 'x' || digits[1] == 'X'))
        digits = digits.substr(2);
    if (digits.empty() || digits.size() > 16)
        fatal("trace import: line %llu: bad address '%s'",
              static_cast<unsigned long long>(line_no), token.c_str());
    for (char c : digits) {
        if (!std::isxdigit(static_cast<unsigned char>(c)))
            fatal("trace import: line %llu: bad address '%s' (expected "
                  "hex)",
                  static_cast<unsigned long long>(line_no),
                  token.c_str());
    }
    return static_cast<Addr>(std::strtoull(digits.c_str(), nullptr, 16));
}

unsigned
nextPowerOfTwo(unsigned n)
{
    unsigned p = 1;
    while (p < n)
        p *= 2;
    return p;
}

} // namespace

ImportSummary
importTextTrace(const std::string &text, const ImportParams &params,
                ByteSink &sink)
{
    ImportSummary summary;
    std::vector<Transaction> transactions;
    unsigned max_proc = 0;

    std::size_t start = 0;
    std::uint64_t line_no = 0;
    while (start <= text.size()) {
        if (start == text.size() && line_no > 0)
            break;
        std::size_t eol = text.find('\n', start);
        if (eol == std::string::npos)
            eol = text.size();
        std::string line = text.substr(start, eol - start);
        start = eol + 1;
        ++line_no;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();

        std::size_t pos = 0;
        const std::string proc_tok = nextToken(line, pos);
        if (proc_tok.empty() || proc_tok[0] == '#') {
            ++summary.blankLines;
            continue;
        }
        Transaction txn;
        txn.proc = parseProc(proc_tok, line_no);
        const std::string op = nextToken(line, pos);
        if (op != "r" && op != "w" && op != "R" && op != "W")
            fatal("trace import: line %llu: unknown operation '%s' "
                  "(expected r or w)",
                  static_cast<unsigned long long>(line_no), op.c_str());
        txn.write = op == "w" || op == "W";
        // The source format stores byte addresses; align down to the
        // containing 8-byte word -- same cache line, valid alignment.
        const std::string addr_tok = nextToken(line, pos);
        txn.addr = parseAddr(addr_tok, line_no) & ~static_cast<Addr>(7);
        if (txn.addr > mem::FunctionalMemory::segmentBytes - 8) {
            fatal("trace import: line %llu: address '%s' is past the "
                  "segment bound 0x%llx",
                  static_cast<unsigned long long>(line_no),
                  addr_tok.c_str(),
                  static_cast<unsigned long long>(
                      mem::FunctionalMemory::segmentBytes));
        }
        const std::string extra = nextToken(line, pos);
        if (!extra.empty() && extra[0] != '#')
            fatal("trace import: line %llu: trailing junk '%s'",
                  static_cast<unsigned long long>(line_no),
                  extra.c_str());
        max_proc = std::max(max_proc, txn.proc);
        transactions.push_back(txn);
    }
    if (transactions.empty())
        fatal("trace import: empty trace (no transactions)");

    unsigned procs = nextPowerOfTwo(max_proc + 1);
    if (params.procs != 0) {
        if ((params.procs & (params.procs - 1)) != 0)
            fatal("trace import: --procs %u is not a power of two",
                  params.procs);
        if (params.procs <= max_proc)
            fatal("trace import: --procs %u but the trace mentions "
                  "processor %u",
                  params.procs, max_proc);
        procs = params.procs;
    }

    TraceHeader header;
    header.procCount = procs;
    header.seed = params.seed;
    header.generator = Generator::Captured;
    header.source = "import";

    TraceWriter writer(header, sink);
    std::uint64_t line_value = 0;
    for (const Transaction &txn : transactions) {
        ++line_value;
        Record rec;
        if (txn.write) {
            rec.kind = OpKind::Store;
            rec.addr = txn.addr;
            rec.value = line_value; // deterministic non-zero payload
            ++summary.writes;
        } else {
            // No token notion in the source format: a read is a load
            // that its processor consumes immediately.
            rec.kind = OpKind::LoadUse;
            rec.addr = txn.addr;
            ++summary.reads;
        }
        writer.append(txn.proc, rec);
    }
    writer.finish();

    summary.procs = procs;
    summary.records = writer.recordCount();
    return summary;
}

ImportSummary
importTextTraceFile(const std::string &text_path,
                    const std::string &out_path,
                    const ImportParams &params)
{
    std::FILE *file = std::fopen(text_path.c_str(), "rb");
    if (file == nullptr)
        fatal("trace import: cannot open '%s'", text_path.c_str());
    std::string text;
    char buf[1 << 16];
    for (;;) {
        const std::size_t got = std::fread(buf, 1, sizeof(buf), file);
        text.append(buf, got);
        if (got < sizeof(buf))
            break;
    }
    const bool bad = std::ferror(file) != 0;
    std::fclose(file);
    if (bad)
        fatal("trace import: read error on '%s'", text_path.c_str());

    MemorySink sink;
    const ImportSummary summary = importTextTrace(text, params, sink);

    // Validate the encoding before anything reaches out_path: a rejected
    // input or an importer bug must fail the command and leave the file
    // there as it was, never an empty or bad .mct.
    std::vector<std::uint8_t> bytes = sink.take();
    const std::string content(bytes.begin(), bytes.end());
    TraceReader reader(std::make_shared<MemorySource>(std::move(bytes)));
    reader.validate();
    svc::writeFileAtomic(out_path, content);
    return summary;
}

} // namespace mcsim::trace
