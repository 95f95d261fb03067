/**
 * @file
 * Text trace import: accept the classic cache-simulator trace syntax --
 * one memory transaction per line, `<proc> <r|w> <hex-addr>` (e.g.
 * "5 w 0xabcd") -- and emit a validated canonical .mct file.
 *
 * Mapping: `r` becomes a blocking LoadUse (the importing format has no
 * token notion, so every read consumes immediately), `w` a Store of the
 * line number (a deterministic, non-zero value). Accesses are 8 bytes
 * wide; an imported byte address is aligned down to the containing
 * 8-byte word, which preserves the touched cache line -- the only thing
 * the source format actually encodes. The processor count defaults to
 * the next power of two above the highest processor mentioned (the
 * Omega networks route by bit slices), overridable upward via
 * ImportParams::procs.
 *
 * Parsing is strict and total: any malformed line is fatal() with its
 * line number, and the import is rejected rather than silently skipped
 * -- a converted trace either round-trips exactly or does not exist.
 */

#ifndef MCSIM_TRACE_IMPORT_HH
#define MCSIM_TRACE_IMPORT_HH

#include <cstdint>
#include <string>

#include "trace/writer.hh"

namespace mcsim::trace
{

/** Import knobs. */
struct ImportParams
{
    /** Processor count; 0 = next power of two above the highest proc
     *  in the text. Must be a power of two and large enough when set. */
    unsigned procs = 0;
    /** Header seed field (documentation only; replay derives nothing
     *  from an imported trace's seed). */
    std::uint64_t seed = 0;
};

/** What an import produced. */
struct ImportSummary
{
    unsigned procs = 0;
    std::uint64_t records = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    /** Input lines skipped because they were empty or '#' comments. */
    std::uint64_t blankLines = 0;
};

/**
 * Parse the text trace in @p text and append the converted records to
 * @p sink as a canonical trace file. fatal() on any malformed line
 * (unknown operation, bad processor or address token, an address whose
 * word ends past mem::FunctionalMemory::segmentBytes, trailing junk) or
 * an empty trace; the message names the 1-based line number.
 */
ImportSummary importTextTrace(const std::string &text,
                              const ImportParams &params, ByteSink &sink);

/** File-to-file convenience: reads @p text_path and, once the import
 *  validates, writes @p out_path atomically; a rejected import leaves
 *  @p out_path as it was. */
ImportSummary importTextTraceFile(const std::string &text_path,
                                  const std::string &out_path,
                                  const ImportParams &params);

} // namespace mcsim::trace

#endif // MCSIM_TRACE_IMPORT_HH
