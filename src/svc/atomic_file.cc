#include "svc/atomic_file.hh"

#include <cstdio>

#include <sys/stat.h>

#include "sim/logging.hh"

namespace mcsim::svc
{

void
writeFileAtomic(const std::string &path, const std::string &content)
{
    const std::string temp = path + ".tmp";
    std::FILE *file = std::fopen(temp.c_str(), "wb");
    if (file == nullptr)
        fatal("cannot write '%s'", temp.c_str());
    const bool wrote =
        content.empty() ||
        std::fwrite(content.data(), 1, content.size(), file) ==
            content.size();
    // fflush pushes the bytes to the OS before the rename publishes the
    // name; a kill after the rename therefore always leaves a complete
    // file (crash consistency against SIGKILL, not power loss).
    const bool flushed = wrote && std::fflush(file) == 0;
    const bool closed = std::fclose(file) == 0;
    if (!wrote || !flushed || !closed) {
        std::remove(temp.c_str());
        fatal("short write to '%s'", temp.c_str());
    }
    if (std::rename(temp.c_str(), path.c_str()) != 0) {
        std::remove(temp.c_str());
        fatal("cannot rename '%s' into '%s'", temp.c_str(), path.c_str());
    }
}

void
ensureDirectory(const std::string &path)
{
    if (path.empty())
        return;
    // Walk the components left to right, creating each prefix; EEXIST
    // is checked by stat so a file in the way is a clear error.
    std::size_t pos = 0;
    while (pos <= path.size()) {
        std::size_t next = path.find('/', pos);
        if (next == std::string::npos)
            next = path.size();
        const std::string prefix = path.substr(0, next);
        pos = next + 1;
        if (prefix.empty() || prefix == ".")
            continue;
        struct stat st = {};
        if (::stat(prefix.c_str(), &st) == 0) {
            if (!S_ISDIR(st.st_mode))
                fatal("svc: '%s' exists and is not a directory",
                      prefix.c_str());
            continue;
        }
        if (::mkdir(prefix.c_str(), 0777) != 0) {
            // A concurrent shard may have just created it.
            if (::stat(prefix.c_str(), &st) != 0 || !S_ISDIR(st.st_mode))
                fatal("svc: cannot create directory '%s'",
                      prefix.c_str());
        }
    }
}

} // namespace mcsim::svc
