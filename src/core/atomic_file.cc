#include "core/atomic_file.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <system_error>

#include <fcntl.h>
#include <unistd.h>

namespace swcc
{

namespace
{

/** fsync() the file at @p path (data and metadata). */
void
syncFile(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        throw std::runtime_error("cannot reopen " + path + " for fsync");
    }
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) {
        throw std::runtime_error("fsync failed for " + path);
    }
}

/** fsync() the directory containing @p path so the rename is durable. */
void
syncParentDir(const std::string &path)
{
    std::filesystem::path dir =
        std::filesystem::path(path).parent_path();
    if (dir.empty()) {
        dir = ".";
    }
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) {
        return; // Not fatal: the rename itself already happened.
    }
    ::fsync(fd);
    ::close(fd);
}

} // namespace

void
atomicWriteFile(const std::string &path,
                const std::function<void(std::ostream &)> &writer,
                bool binary)
{
    // Same directory as the destination so the rename cannot cross a
    // filesystem boundary; pid-suffixed so concurrent processes never
    // clobber each other's temporaries.
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (!parent.empty()) {
        // First artifact into a fresh output tree (e.g. a bench run
        // pointed at bench_results/new-dir/) creates it on demand.
        std::error_code ec;
        std::filesystem::create_directories(parent, ec);
        if (ec) {
            throw std::runtime_error("cannot create directory " +
                                     parent.string() + ": " +
                                     ec.message());
        }
    }
    try {
        {
            std::ofstream os(tmp, binary
                ? std::ios::binary | std::ios::trunc
                : std::ios::trunc);
            if (!os) {
                throw std::runtime_error("cannot open " + tmp +
                                         " for writing");
            }
            writer(os);
            if (!os.flush()) {
                throw std::runtime_error("failed to write " + tmp);
            }
        }
        syncFile(tmp);
        std::error_code ec;
        std::filesystem::rename(tmp, path, ec);
        if (ec) {
            throw std::runtime_error("cannot rename " + tmp +
                                     " to " + path + ": " +
                                     ec.message());
        }
        syncParentDir(path);
    } catch (...) {
        std::error_code ignored;
        std::filesystem::remove(tmp, ignored);
        throw;
    }
}

} // namespace swcc
