/**
 * @file
 * Crash-safe artifact writes: temp file + fsync + atomic rename.
 *
 * Every CSV/JSON/trace artifact the toolkit leaves on disk is the
 * *output* of a potentially long run; a process killed mid-write
 * must never leave a truncated file that parses as a complete result.
 * atomicWriteFile() writes into a sibling temporary file, flushes it
 * to stable storage, and renames it over the destination — readers
 * observe either the old content or the complete new content, never a
 * partial write.
 */

#ifndef SWCC_CORE_ATOMIC_FILE_HH
#define SWCC_CORE_ATOMIC_FILE_HH

#include <functional>
#include <iosfwd>
#include <string>

namespace swcc
{

/**
 * Writes @p path atomically, creating missing parent directories.
 *
 * @p writer receives an output stream positioned at the start of an
 * empty temporary file in the destination directory; when it returns,
 * the temporary is flushed, fsync()ed, and renamed over @p path. On
 * any failure (including an exception from @p writer) the temporary
 * is removed and the destination is left untouched.
 *
 * @param binary Open the temporary in binary mode.
 * @throws std::runtime_error if the file cannot be written or synced.
 */
void atomicWriteFile(const std::string &path,
                     const std::function<void(std::ostream &)> &writer,
                     bool binary = false);

} // namespace swcc

#endif // SWCC_CORE_ATOMIC_FILE_HH
