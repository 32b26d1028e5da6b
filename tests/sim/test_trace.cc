/**
 * @file
 * Unit tests for trace buffers and serialization.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>

#include "sim/trace/trace_buffer.hh"
#include "sim/trace/trace_io.hh"

namespace swcc
{
namespace
{

TraceBuffer
sampleTrace()
{
    TraceBuffer trace;
    trace.append(0, RefType::IFetch, 0x1000);
    trace.append(0, RefType::Load, 0x8000'0010);
    trace.append(1, RefType::IFetch, 0x2000);
    trace.append(1, RefType::Store, 0x8000'0010);
    trace.append(2, RefType::IFetch, 0x3000);
    trace.append(0, RefType::Flush, 0x8000'0010);
    return trace;
}

TEST(TraceBufferTest, TracksSizeAndCpus)
{
    const TraceBuffer trace = sampleTrace();
    EXPECT_EQ(trace.size(), 6u);
    EXPECT_EQ(trace.numCpus(), 3u);
    EXPECT_FALSE(trace.empty());
}

TEST(TraceBufferTest, CountsByType)
{
    const TraceBuffer trace = sampleTrace();
    EXPECT_EQ(trace.countType(RefType::IFetch), 3u);
    EXPECT_EQ(trace.countType(RefType::Load), 1u);
    EXPECT_EQ(trace.countType(RefType::Store), 1u);
    EXPECT_EQ(trace.countType(RefType::Flush), 1u);
}

TEST(TraceBufferTest, RestrictionKeepsOrderAndDropsOtherCpus)
{
    const TraceBuffer restricted = sampleTrace().restrictedToCpus(2);
    EXPECT_EQ(restricted.size(), 5u);
    EXPECT_EQ(restricted.numCpus(), 2u);
    for (const TraceEvent &event : restricted) {
        EXPECT_LT(event.cpu, 2);
    }
}

TEST(TraceBufferTest, ClearResets)
{
    TraceBuffer trace = sampleTrace();
    trace.clear();
    EXPECT_TRUE(trace.empty());
    EXPECT_EQ(trace.numCpus(), 0u);
}

TEST(TraceIoTest, BinaryRoundTrip)
{
    const TraceBuffer original = sampleTrace();
    std::stringstream stream;
    writeBinaryTrace(original, stream);
    const TraceBuffer loaded = readBinaryTrace(stream);
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(loaded[i], original[i]) << "event " << i;
    }
}

TEST(TraceIoTest, TextRoundTrip)
{
    const TraceBuffer original = sampleTrace();
    std::stringstream stream;
    writeTextTrace(original, stream);
    const TraceBuffer loaded = readTextTrace(stream);
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(loaded[i], original[i]) << "event " << i;
    }
}

TEST(TraceIoTest, BinaryRejectsBadMagic)
{
    std::stringstream stream;
    stream << "NOTATRACE-AT-ALL";
    EXPECT_THROW(readBinaryTrace(stream), std::runtime_error);
}

TEST(TraceIoTest, TextRejectsMalformedLines)
{
    std::stringstream stream("0 x 1000\n");
    EXPECT_THROW(readTextTrace(stream), std::runtime_error);

    std::stringstream missing("0\n");
    EXPECT_THROW(readTextTrace(missing), std::runtime_error);
}

TEST(TraceIoTest, TextSkipsCommentsAndBlankLines)
{
    std::stringstream stream("# header\n\n0 i 1f00\n");
    const TraceBuffer trace = readTextTrace(stream);
    ASSERT_EQ(trace.size(), 1u);
    EXPECT_EQ(trace[0].addr, 0x1f00u);
    EXPECT_EQ(trace[0].type, RefType::IFetch);
}

TEST(TraceIoTest, FileRoundTripBothFormats)
{
    const TraceBuffer original = sampleTrace();
    const std::string binary_path =
        ::testing::TempDir() + "/trace_roundtrip.swcc";
    const std::string text_path =
        ::testing::TempDir() + "/trace_roundtrip.txt";
    saveTrace(original, binary_path);
    saveTrace(original, text_path);
    EXPECT_EQ(loadTrace(binary_path).size(), original.size());
    EXPECT_EQ(loadTrace(text_path).size(), original.size());
}

TEST(TraceIoTest, MissingFileThrows)
{
    EXPECT_THROW(loadTrace("/nonexistent/path/trace.swcc"),
                 std::runtime_error);
}

TEST(TraceIoTest, FailedSaveThrowsAndLeavesNoFile)
{
    // The "directory" is a regular file, so the save cannot succeed;
    // it must report that instead of silently dropping the trace.
    const std::string blocker = ::testing::TempDir() + "/trace_blocker";
    saveTrace(sampleTrace(), blocker);
    const std::string path = blocker + "/trace.swcc";
    EXPECT_THROW(saveTrace(sampleTrace(), path), std::runtime_error);
    EXPECT_THROW(loadTrace(path), std::runtime_error);
    // The blocker itself is still the complete earlier save.
    EXPECT_EQ(loadTrace(blocker).size(), sampleTrace().size());
    std::remove(blocker.c_str());
}

TEST(RefTypeTest, Helpers)
{
    EXPECT_TRUE(isData(RefType::Load));
    EXPECT_TRUE(isData(RefType::Store));
    EXPECT_FALSE(isData(RefType::IFetch));
    EXPECT_FALSE(isData(RefType::Flush));
    EXPECT_EQ(refTypeName(RefType::Flush), "flush");
}

} // namespace
} // namespace swcc
