/**
 * @file
 * Unit tests for the swcc command-line tool.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "cli/commands.hh"
#include "core/parallel.hh"
#include "core/workload.hh"
#include "cli/options.hh"

namespace swcc::cli
{
namespace
{

int
runCli(std::initializer_list<std::string> args, std::string *output)
{
    std::ostringstream out;
    const int code = run(std::vector<std::string>(args), out);
    if (output != nullptr) {
        *output = out.str();
    }
    return code;
}

TEST(OptionsTest, ParsesValuesFlagsAndPositionals)
{
    const Options options = Options::parse(
        {"trace.swcc", "--scheme", "dragon", "--network", "--cpus",
         "16"});
    EXPECT_EQ(options.positional().size(), 1u);
    EXPECT_EQ(options.positional().front(), "trace.swcc");
    EXPECT_EQ(options.valueOr("scheme", ""), "dragon");
    EXPECT_TRUE(options.has("network"));
    EXPECT_FALSE(options.value("network").has_value());
    EXPECT_EQ(options.unsignedOr("cpus", 0), 16u);
    EXPECT_EQ(options.unsignedOr("missing", 7), 7u);
}

TEST(OptionsTest, NumberParsingIsStrict)
{
    const Options options = Options::parse({"--x", "abc", "--y", "1.5"});
    EXPECT_THROW(options.numberOr("x", 0.0), std::invalid_argument);
    EXPECT_DOUBLE_EQ(options.numberOr("y", 0.0), 1.5);
    EXPECT_THROW(options.unsignedOr("y", 0), std::invalid_argument);
}

TEST(OptionsTest, UnsignedRejectsValuesAboveUintMax)
{
    // Casting a double above UINT_MAX to unsigned is UB; the parser
    // must range-check first and report a clear error.
    const Options options = Options::parse(
        {"--events", "5e9", "--edge", "4294967295", "--over",
         "4294967296", "--neg", "-3", "--inf", "inf"});
    EXPECT_THROW(options.unsignedOr("events", 0),
                 std::invalid_argument);
    EXPECT_EQ(options.unsignedOr("edge", 0), 4294967295u);
    EXPECT_THROW(options.unsignedOr("over", 0), std::invalid_argument);
    EXPECT_THROW(options.unsignedOr("neg", 0), std::invalid_argument);
    EXPECT_THROW(options.unsignedOr("inf", 0), std::invalid_argument);
    try {
        options.unsignedOr("events", 0);
        FAIL() << "expected an out-of-range error";
    } catch (const std::invalid_argument &error) {
        EXPECT_NE(std::string(error.what()).find("out of range"),
                  std::string::npos)
            << error.what();
    }
}

TEST(OptionsTest, RejectsEmptyAndUnknownOptions)
{
    EXPECT_THROW(Options::parse({"--"}), std::invalid_argument);
    const Options options = Options::parse({"--known", "1", "--oops"});
    EXPECT_THROW(options.requireKnown({"known"}), std::invalid_argument);
    EXPECT_NO_THROW(options.requireKnown({"known", "oops"}));
}

TEST(CliTest, NoArgsPrintsUsage)
{
    std::string output;
    EXPECT_EQ(runCli({}, &output), 2);
    EXPECT_NE(output.find("usage:"), std::string::npos);
}

TEST(CliTest, HelpSucceeds)
{
    std::string output;
    EXPECT_EQ(runCli({"help"}, &output), 0);
    EXPECT_NE(output.find("commands:"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails)
{
    std::string output;
    EXPECT_EQ(runCli({"frobnicate"}, &output), 2);
    EXPECT_NE(output.find("unknown command"), std::string::npos);
}

TEST(CliTest, ThreadsOptionIsAcceptedEverywhereAndDeterministic)
{
    std::string serial, parallel;
    EXPECT_EQ(runCli({"sensitivity", "--cpus", "8", "--threads", "1"},
                     &serial),
              0);
    EXPECT_EQ(runCli({"sensitivity", "--cpus", "8", "--threads", "4"},
                     &parallel),
              0);
    // The determinism guarantee, observed end to end: identical bytes.
    EXPECT_EQ(serial, parallel);

    std::string output;
    EXPECT_EQ(runCli({"eval", "--cpus", "4", "--threads", "2"},
                     &output),
              0);

    EXPECT_EQ(runCli({"eval", "--threads", "0"}, &output), 2);
    EXPECT_NE(output.find("positive"), std::string::npos);

    setThreadCount(0); // Back to the default for the other tests.
}

TEST(CliTest, EvalBusPrintsEveryScheme)
{
    std::string output;
    ASSERT_EQ(runCli({"eval", "--cpus", "8", "--shd", "0.2"}, &output),
              0);
    EXPECT_NE(output.find("Base"), std::string::npos);
    EXPECT_NE(output.find("Dragon"), std::string::npos);
    EXPECT_NE(output.find("Software-Flush"), std::string::npos);
    EXPECT_NE(output.find("No-Cache"), std::string::npos);
    EXPECT_NE(output.find("MESI"), std::string::npos);
    EXPECT_NE(output.find("MESIF"), std::string::npos);
    EXPECT_NE(output.find("MOESI"), std::string::npos);
    EXPECT_NE(output.find("Adaptive-Hybrid"), std::string::npos);
}

TEST(CliTest, SimParsesEveryProtocolFamilyScheme)
{
    const std::string path = ::testing::TempDir() + "/cli_family.swcc";
    std::string output;
    ASSERT_EQ(runCli({"gen", "--profile", "pops-like", "--cpus", "2",
                      "--instructions", "5000", "--out", path},
                     &output),
              0);
    for (const char *scheme :
         {"mesi", "mesif", "moesi", "adaptive-hybrid"}) {
        ASSERT_EQ(runCli({"sim", path, "--scheme", scheme}, &output),
                  0)
            << scheme;
        EXPECT_NE(output.find("processing power"), std::string::npos)
            << scheme;
    }
    std::remove(path.c_str());
}

TEST(CliTest, EvalNetworkIncludesDirectoryExtension)
{
    std::string output;
    ASSERT_EQ(runCli({"eval", "--network", "--stages", "8"}, &output),
              0);
    EXPECT_NE(output.find("Directory"), std::string::npos);
    EXPECT_EQ(output.find("Dragon"), std::string::npos);
}

TEST(CliTest, EvalNetworkBeyondTwoToThe31CpusIsAnError)
{
    // 3e9 CPUs need 32 stages, one more than a network may have.
    std::string output;
    EXPECT_EQ(runCli({"eval", "--network", "--cpus", "3000000000"},
                     &output),
              2);
}

TEST(CliTest, StageCountsAbove31AreRejected)
{
    std::string output;
    EXPECT_EQ(runCli({"eval", "--stages", "40"}, &output), 2);
    EXPECT_EQ(output.find("Multistage network"), std::string::npos);
    EXPECT_EQ(runCli({"network", "--stages", "32"}, &output), 2);
    EXPECT_EQ(output.find("Network disciplines"), std::string::npos);
    ASSERT_EQ(runCli({"eval", "--stages", "31"}, &output), 0);
    EXPECT_NE(output.find("2147483648 processors"), std::string::npos);
}

TEST(CliTest, EvalRejectsBadParameterValue)
{
    std::string output;
    EXPECT_EQ(runCli({"eval", "--shd", "1.7"}, &output), 2);
    EXPECT_NE(output.find("error:"), std::string::npos);
}

TEST(CliTest, EvalRejectsUnknownOption)
{
    std::string output;
    EXPECT_EQ(runCli({"eval", "--nonsense", "1"}, &output), 2);
    EXPECT_NE(output.find("unknown option"), std::string::npos);
}

TEST(CliTest, GenStatSimRoundTrip)
{
    const std::string path = ::testing::TempDir() + "/cli_trace.swcc";

    std::string output;
    ASSERT_EQ(runCli({"gen", "--profile", "pops-like", "--cpus", "2",
                      "--instructions", "20000", "--flushes", "--out",
                      path},
                     &output),
              0);
    EXPECT_NE(output.find("wrote"), std::string::npos);

    ASSERT_EQ(runCli({"stat", path}, &output), 0);
    EXPECT_NE(output.find("ls"), std::string::npos);
    EXPECT_NE(output.find("apl"), std::string::npos);

    ASSERT_EQ(runCli({"sim", path, "--scheme", "software-flush"},
                     &output),
              0);
    EXPECT_NE(output.find("processing power"), std::string::npos);

    std::remove(path.c_str());
}

TEST(CliTest, StatWithoutFileFails)
{
    std::string output;
    EXPECT_EQ(runCli({"stat"}, &output), 2);
    EXPECT_NE(output.find("trace file"), std::string::npos);
}

TEST(CliTest, SimUnknownSchemeFails)
{
    std::string output;
    EXPECT_EQ(runCli({"sim", "x.swcc", "--scheme", "mosi"}, &output), 2);
    EXPECT_NE(output.find("unknown scheme"), std::string::npos);
}

TEST(CliTest, ValidateRunsEndToEnd)
{
    std::string output;
    ASSERT_EQ(runCli({"validate", "--profile", "thor-like", "--scheme",
                      "base", "--cpus", "2", "--instructions",
                      "20000"},
                     &output),
              0);
    EXPECT_NE(output.find("model power"), std::string::npos);
    EXPECT_NE(output.find("error %"), std::string::npos);
}

TEST(CliTest, SweepProducesRequestedPoints)
{
    std::string output;
    ASSERT_EQ(runCli({"sweep", "--param", "shd", "--from", "0.1",
                      "--to", "0.3", "--points", "3", "--cpus", "8"},
                     &output),
              0);
    EXPECT_NE(output.find("0.1"), std::string::npos);
    EXPECT_NE(output.find("0.3"), std::string::npos);
}

TEST(CliTest, SweepAplUsesAplAxis)
{
    std::string output;
    ASSERT_EQ(runCli({"sweep", "--param", "apl", "--from", "1", "--to",
                      "64", "--points", "4"},
                     &output),
              0);
    EXPECT_NE(output.find("apl"), std::string::npos);
    EXPECT_NE(output.find("64"), std::string::npos);
}

TEST(CliTest, NetworkComparesDisciplines)
{
    std::string output;
    ASSERT_EQ(runCli({"network", "--stages", "6"}, &output), 0);
    EXPECT_NE(output.find("circuit power"), std::string::npos);
    EXPECT_NE(output.find("packet power"), std::string::npos);
    EXPECT_NE(output.find("Directory"), std::string::npos);
}

TEST(CliTest, NetworkWithWideSwitches)
{
    std::string output;
    ASSERT_EQ(runCli({"network", "--stages", "8", "--switch", "4"},
                     &output),
              0);
    EXPECT_NE(output.find("4x4"), std::string::npos);
    EXPECT_EQ(runCli({"network", "--switch", "1"}, &output), 2);
}

TEST(CliTest, SensitivityPrintsEveryParameter)
{
    std::string output;
    ASSERT_EQ(runCli({"sensitivity", "--cpus", "8"}, &output), 0);
    for (ParamId id : kAllParams) {
        EXPECT_NE(output.find(std::string(paramName(id))),
                  std::string::npos)
            << paramName(id);
    }
}

TEST(CliTest, SweepNeedsParam)
{
    std::string output;
    EXPECT_EQ(runCli({"sweep", "--from", "0", "--to", "1"}, &output), 2);
    EXPECT_NE(output.find("--param"), std::string::npos);
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

TEST(CliTest, CsvOutWritesTheResultTable)
{
    const std::string csv = ::testing::TempDir() + "/cli_sweep.csv";
    std::remove(csv.c_str());
    std::string output;
    ASSERT_EQ(runCli({"sweep", "--param", "shd", "--points", "3",
                      "--cpus", "8", "--csv-out", csv},
                     &output),
              0);
    const std::string text = readFile(csv);
    EXPECT_EQ(text.rfind("shd,Base,Dragon,", 0), 0u) << text;
    // Header plus one line per swept value.
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
    std::remove(csv.c_str());
}

TEST(CliTest, FailingCellIsAnErrorNotANanRow)
{
    // A 1000-byte cache is not a power of two, so every validation
    // cell throws; the command must fail instead of printing NaNs.
    std::string output;
    EXPECT_EQ(runCli({"validate", "--cache", "1000", "--cpus", "2",
                      "--instructions", "2000"},
                     &output),
              2);
    EXPECT_NE(output.find("error:"), std::string::npos) << output;
    EXPECT_EQ(output.find("nan"), std::string::npos) << output;
}

TEST(CliTest, CsvOutIsIdenticalAtOneAndFourThreads)
{
    // The written artifact, like stdout, does not depend on the lane
    // count: cells land in index-addressed slots.
    const std::string dir = ::testing::TempDir();
    const std::string serial_csv = dir + "/cli_sweep_t1.csv";
    const std::string parallel_csv = dir + "/cli_sweep_t4.csv";
    std::string serial;
    std::string parallel;
    ASSERT_EQ(runCli({"sweep", "--param", "shd", "--points", "7",
                      "--cpus", "8", "--threads", "1", "--csv-out",
                      serial_csv},
                     &serial),
              0);
    ASSERT_EQ(runCli({"sweep", "--param", "shd", "--points", "7",
                      "--cpus", "8", "--threads", "4", "--csv-out",
                      parallel_csv},
                     &parallel),
              0);
    setThreadCount(0);
    EXPECT_EQ(serial, parallel);
    const std::string text = readFile(serial_csv);
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 8);
    EXPECT_EQ(text, readFile(parallel_csv));
    std::remove(serial_csv.c_str());
    std::remove(parallel_csv.c_str());
}

TEST(CliTest, ValidateAndSensitivityWriteCsvOut)
{
    const std::string dir = ::testing::TempDir();
    const std::string validate_csv = dir + "/cli_validate.csv";
    const std::string sensitivity_csv = dir + "/cli_sensitivity.csv";
    std::string output;
    ASSERT_EQ(runCli({"validate", "--scheme", "base", "--cpus", "2",
                      "--instructions", "5000", "--csv-out",
                      validate_csv},
                     &output),
              0);
    const std::string validate_text = readFile(validate_csv);
    EXPECT_EQ(validate_text.rfind("cpus,sim power,model power,error %", 0),
              0u)
        << validate_text;
    EXPECT_EQ(std::count(validate_text.begin(), validate_text.end(), '\n'),
              3);

    ASSERT_EQ(runCli({"sensitivity", "--cpus", "8", "--csv-out",
                      sensitivity_csv},
                     &output),
              0);
    const std::string sensitivity_text = readFile(sensitivity_csv);
    EXPECT_EQ(sensitivity_text.rfind(
                  "parameter,Software-Flush,No-Cache,Dragon,Base", 0),
              0u)
        << sensitivity_text;
    EXPECT_EQ(std::count(sensitivity_text.begin(), sensitivity_text.end(),
                         '\n'),
              static_cast<long>(kNumParams) + 1);
    std::remove(validate_csv.c_str());
    std::remove(sensitivity_csv.c_str());
}

TEST(CliTest, UnwritableCsvOutIsAnError)
{
    // The table is still printed, but a requested artifact that could
    // not be written fails the command.
    const std::string blocker = ::testing::TempDir() + "/cli_blocker";
    std::ofstream(blocker) << "not a directory\n";
    std::string output;
    EXPECT_EQ(runCli({"sweep", "--param", "shd", "--points", "3",
                      "--cpus", "8", "--csv-out", blocker + "/out.csv"},
                     &output),
              2);
    EXPECT_NE(output.find("error:"), std::string::npos) << output;
    EXPECT_EQ(readFile(blocker), "not a directory\n");
    std::remove(blocker.c_str());
}

TEST(CliTest, FailingSweepCellIsAnErrorNotANanRow)
{
    // shd = 1.5 is not a probability; the whole sweep fails.
    std::string output;
    EXPECT_EQ(runCli({"sweep", "--param", "shd", "--from", "0.1", "--to",
                      "1.5", "--points", "3", "--cpus", "8"},
                     &output),
              2);
    EXPECT_NE(output.find("error:"), std::string::npos) << output;
    EXPECT_EQ(output.find("nan"), std::string::npos) << output;
}

TEST(CliTest, FailingSensitivityCellIsAnErrorNotANanRow)
{
    std::string output;
    EXPECT_EQ(runCli({"sensitivity", "--cpus", "0"}, &output), 2);
    EXPECT_NE(output.find("error:"), std::string::npos) << output;
    EXPECT_EQ(output.find("nan"), std::string::npos) << output;
}

/** Campaign-engine flags that no longer exist; each is an error. */
class RetiredFlagTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(RetiredFlagTest, IsRejectedAsUnknown)
{
    std::string output;
    EXPECT_EQ(runCli({"sweep", "--param", "shd", "--points", "3",
                      GetParam(), "1"},
                     &output),
              2);
    EXPECT_NE(output.find("unknown option"), std::string::npos) << output;
}

INSTANTIATE_TEST_SUITE_P(
    CampaignFlags, RetiredFlagTest,
    ::testing::Values("--journal", "--resume", "--task-retries",
                      "--task-timeout-ms", "--backoff-ms",
                      "--fault-inject", "--campaign-seed"),
    [](const ::testing::TestParamInfo<const char *> &flag) {
        // "--task-retries" -> "task_retries" (test names are C
        // identifiers).
        std::string name(flag.param + 2);
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

} // namespace
} // namespace swcc::cli
