/**
 * @file
 * Atomic whole-file writes for results documents.
 *
 * Every canonical output (sweep JSON/CSV, golden documents) is written
 * to a sibling temporary file and renamed into place, so a run killed
 * at any instant can never leave a truncated document behind: readers
 * see either the previous complete file or the new complete file, never
 * a prefix. Checkpoint journals deliberately do NOT use this -- they are
 * append-only and crash-tolerant by framing (src/svc/journal.hh).
 */

#ifndef MCSIM_SVC_ATOMIC_FILE_HH
#define MCSIM_SVC_ATOMIC_FILE_HH

#include <string>

namespace mcsim::svc
{

/**
 * Write @p content to @p path atomically: write "<path>.tmp", flush it
 * to the OS, and rename over @p path. fatal() on any I/O failure (the
 * temporary is removed on the way out, so no partial artifact lingers).
 * Concurrent writers to the same path race whole files, never bytes.
 */
void writeFileAtomic(const std::string &path, const std::string &content);

/**
 * Create @p path as a directory, making parents as needed (mkdir -p).
 * An existing directory is fine; fatal() when a component cannot be
 * created or exists as a non-directory.
 */
void ensureDirectory(const std::string &path);

} // namespace mcsim::svc

#endif // MCSIM_SVC_ATOMIC_FILE_HH
