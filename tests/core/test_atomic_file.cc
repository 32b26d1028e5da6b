/**
 * @file
 * Unit tests for crash-safe artifact writes (temp file + fsync +
 * atomic rename).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/atomic_file.hh"

namespace swcc
{
namespace
{

namespace fs = std::filesystem;

std::string
freshPath(const std::string &name)
{
    const std::string path = ::testing::TempDir() + "/" + name;
    fs::remove(path);
    return path;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

TEST(AtomicFileTest, WritesContentAndLeavesNoTempFiles)
{
    const std::string path = freshPath("atomic_basic.txt");
    atomicWriteFile(
        path, [](std::ostream &os) { os << "hello\nworld\n"; });
    EXPECT_EQ(slurp(path), "hello\nworld\n");
    // Only look for temporaries of *this* destination: the shared
    // temp directory can transiently hold another test's in-flight
    // .tmp. file when ctest runs suites in parallel.
    for (const auto &entry :
         fs::directory_iterator(fs::path(path).parent_path())) {
        EXPECT_EQ(entry.path().string().find("atomic_basic.txt.tmp."),
                  std::string::npos)
            << "leftover temporary: " << entry.path();
    }
}

TEST(AtomicFileTest, CreatesMissingParentDirectories)
{
    const std::string root = freshPath("atomic_tree");
    fs::remove_all(root);
    const std::string path = root + "/a/b/c/nested.txt";
    atomicWriteFile(
        path, [](std::ostream &os) { os << "deep\n"; });
    EXPECT_EQ(slurp(path), "deep\n");
    // A second write through the now-existing tree also works.
    atomicWriteFile(
        path, [](std::ostream &os) { os << "deeper\n"; });
    EXPECT_EQ(slurp(path), "deeper\n");
    fs::remove_all(root);
}

TEST(AtomicFileTest, FailedWriteLeavesDestinationUntouched)
{
    const std::string path = freshPath("atomic_fail.txt");
    atomicWriteFile(path, [](std::ostream &os) { os << "v1"; });
    EXPECT_THROW(atomicWriteFile(path,
                                 [](std::ostream &os) {
                                     os << "partial v2";
                                     throw std::runtime_error(
                                         "writer died");
                                 }),
                 std::runtime_error);
    EXPECT_EQ(slurp(path), "v1");
}

TEST(AtomicFileTest, ShorterRewriteLeavesNoTrailingBytes)
{
    // The destination is replaced, never written in place: a shorter
    // new version must not keep the old version's tail.
    const std::string path = freshPath("atomic_shrink.txt");
    atomicWriteFile(path, [](std::ostream &os) {
        os << "a much longer first version\n";
    });
    atomicWriteFile(path, [](std::ostream &os) { os << "v2\n"; });
    EXPECT_EQ(slurp(path), "v2\n");
}

TEST(AtomicFileTest, BinaryModeKeepsEveryByte)
{
    const std::string path = freshPath("atomic_binary.bin");
    std::string bytes;
    for (int b = 0; b < 256; ++b) {
        bytes.push_back(static_cast<char>(b));
    }
    bytes += "\r\n\n\r";
    atomicWriteFile(
        path,
        [&](std::ostream &os) {
            os.write(bytes.data(),
                     static_cast<std::streamsize>(bytes.size()));
        },
        true);
    EXPECT_EQ(slurp(path), bytes);
}

TEST(AtomicFileTest, WriterThatWritesNothingLeavesAnEmptyFile)
{
    const std::string path = freshPath("atomic_empty.txt");
    atomicWriteFile(path, [](std::ostream &) {});
    ASSERT_TRUE(fs::exists(path));
    EXPECT_EQ(fs::file_size(path), 0u);
}

TEST(AtomicFileTest, UnwritableDestinationThrowsAndLeavesTheBlockerAlone)
{
    // The "parent directory" is a regular file, so neither the
    // directory nor the temporary can be created.
    const std::string blocker = freshPath("atomic_blocker");
    fs::remove_all(blocker);
    atomicWriteFile(blocker, [](std::ostream &os) { os << "file"; });
    const std::string path = blocker + "/out.txt";
    EXPECT_THROW(
        atomicWriteFile(path, [](std::ostream &os) { os << "x"; }),
        std::runtime_error);
    EXPECT_TRUE(fs::is_regular_file(blocker));
    EXPECT_EQ(slurp(blocker), "file");
    fs::remove(blocker);
}

} // namespace
} // namespace swcc
