// End-to-end tests of the `gbdt` command line: every subcommand is driven
// through a real subprocess against generated LibSVM files.  gbdt_fuzz and
// gbdt_bench are driven the same way for their shared number parsing.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#if !defined(GBDT_CLI_PATH) || !defined(GBDT_FUZZ_PATH) || \
    !defined(GBDT_BENCH_PATH)
#error "GBDT_CLI_PATH, GBDT_FUZZ_PATH and GBDT_BENCH_PATH must be defined"
#endif

namespace {

struct CommandResult {
  int exit_code = -1;
  std::string output;
};

CommandResult run_tool(const char* tool, const std::string& args) {
  const std::string cmd =
      std::string(tool) + " " + args + " > /tmp/gbdt_cli_out.txt 2>&1";
  CommandResult r;
  const int status = std::system(cmd.c_str());
  r.exit_code = WEXITSTATUS(status);
  std::ifstream in("/tmp/gbdt_cli_out.txt");
  std::stringstream buf;
  buf << in.rdbuf();
  r.output = buf.str();
  return r;
}

CommandResult run(const std::string& args) {
  return run_tool(GBDT_CLI_PATH, args);
}

class CliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ASSERT_EQ(run("synth --out=/tmp/gbdt_cli_train.libsvm --instances=600 "
                  "--attributes=10 --density=0.8 --seed=5")
                  .exit_code,
              0);
    ASSERT_EQ(run("synth --out=/tmp/gbdt_cli_valid.libsvm --instances=200 "
                  "--attributes=10 --density=0.8 --seed=5")
                  .exit_code,
              0);
  }
};

TEST_F(CliTest, HelpListsSubcommands) {
  const auto r = run("help");
  EXPECT_EQ(r.exit_code, 0);
  for (const char* sub :
       {"train", "predict", "eval", "dump", "importance", "synth"}) {
    EXPECT_NE(r.output.find(sub), std::string::npos) << sub;
  }
}

TEST_F(CliTest, NoArgsFailsWithUsage) {
  const auto r = run("");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("subcommands"), std::string::npos);
}

TEST_F(CliTest, TrainPredictEvalRoundTrip) {
  auto r = run("train --data=/tmp/gbdt_cli_train.libsvm "
               "--model=/tmp/gbdt_cli.model --trees=8 --depth=3");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("trained 8 trees"), std::string::npos);
  EXPECT_NE(r.output.find("modeled device time"), std::string::npos);

  r = run("predict --data=/tmp/gbdt_cli_train.libsvm "
          "--model=/tmp/gbdt_cli.model --output=/tmp/gbdt_cli_pred.txt");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  std::ifstream pred("/tmp/gbdt_cli_pred.txt");
  int lines = 0;
  std::string line;
  while (std::getline(pred, line)) ++lines;
  EXPECT_EQ(lines, 600);

  r = run("eval --data=/tmp/gbdt_cli_train.libsvm --model=/tmp/gbdt_cli.model");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("rmse:"), std::string::npos);
}

TEST_F(CliTest, TrainWithValidationAndEarlyStopping) {
  const auto r =
      run("train --data=/tmp/gbdt_cli_train.libsvm "
          "--valid=/tmp/gbdt_cli_valid.libsvm --early-stopping=3 "
          "--model=/tmp/gbdt_cli_es.model --trees=100 --depth=6 --eta=0.8");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("validation rmse"), std::string::npos);
}

TEST_F(CliTest, HistMethodTrainsWithValidationAndEarlyStopping) {
  const auto r =
      run("train --data=/tmp/gbdt_cli_train.libsvm "
          "--valid=/tmp/gbdt_cli_valid.libsvm --early-stopping=3 "
          "--method=hist --bins=32 --model=/tmp/gbdt_cli_hist_es.model "
          "--trees=100 --depth=6 --eta=0.8");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("validation rmse"), std::string::npos);
}

TEST_F(CliTest, DumpShowsTreeStructure) {
  const auto r = run("dump --model=/tmp/gbdt_cli.model --tree=0");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("booster[0]"), std::string::npos);
  EXPECT_NE(r.output.find("leaf="), std::string::npos);
  EXPECT_EQ(r.output.find("booster[1]"), std::string::npos);  // filtered
}

TEST_F(CliTest, ImportanceRanksFeatures) {
  const auto r = run("importance --model=/tmp/gbdt_cli.model --kind=gain");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("f"), std::string::npos);
  // Scores are descending.
  std::istringstream in(r.output);
  std::string name;
  double prev = 1e18, v = 0;
  while (in >> name >> v) {
    EXPECT_LE(v, prev);
    prev = v;
  }
}

TEST_F(CliTest, LogisticLossFlag) {
  ASSERT_EQ(run("synth --out=/tmp/gbdt_cli_bin.libsvm --instances=400 "
                "--attributes=8 --binary --seed=9")
                .exit_code,
            0);
  const auto r = run("train --data=/tmp/gbdt_cli_bin.libsvm "
                     "--model=/tmp/gbdt_cli_bin.model --trees=5 --depth=3 "
                     "--loss=logistic");
  ASSERT_EQ(r.exit_code, 0) << r.output;
}

TEST_F(CliTest, PaperDatasetSynth) {
  const auto r = run("synth --out=/tmp/gbdt_cli_covtype.libsvm "
                     "--paper=covtype --scale=0.01");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("x 54"), std::string::npos);
}

TEST_F(CliTest, BadInputsFailGracefully) {
  EXPECT_NE(run("train --model=/tmp/x.model").exit_code, 0);  // no data
  EXPECT_NE(run("train --data=/nonexistent --model=/tmp/x.model").exit_code,
            0);
  EXPECT_NE(run("predict --data=/tmp/gbdt_cli_train.libsvm "
                "--model=/nonexistent")
                .exit_code,
            0);
  EXPECT_NE(run("frobnicate").exit_code, 0);
  EXPECT_NE(run("train --data=a --model=b --loss=hinge").exit_code, 0);
  EXPECT_NE(run("synth --out=/tmp/x --paper=unknown-set").exit_code, 0);
}

// A numeric flag is parsed whole: a word, a trailing character or a value
// out of its type's range exits 2 naming the flag instead of training.
TEST_F(CliTest, MalformedNumericFlagsFailLoudly) {
  const std::string train =
      "train --data=/tmp/gbdt_cli_train.libsvm --model=/tmp/x.model "
      "--trees=2 --depth=2 ";
  for (const char* bad : {"--eta=abc", "--depth=6x", "--gpus=two",
                          "--trees=", "--bins=99999999999"}) {
    const std::string arg = bad;
    const auto r = run(train + arg);
    EXPECT_EQ(r.exit_code, 2) << arg << ": " << r.output;
    EXPECT_NE(r.output.find(arg.substr(0, arg.find('='))), std::string::npos)
        << arg << ": " << r.output;
  }
  EXPECT_EQ(run(train + "--eta=0.25 --depth=3").exit_code, 0);
}

// A flag its subcommand never reads exits 2 naming it instead of being
// ignored: the retired --allreduce, a typo, and a train flag given to synth.
TEST_F(CliTest, UnreadFlagsFailLoudly) {
  const std::string train =
      "train --data=/tmp/gbdt_cli_train.libsvm --model=/tmp/x.model "
      "--trees=2 --depth=2 ";
  const std::pair<std::string, std::string> cases[] = {
      {train + "--gpus=4 --allreduce=ring", "--allreduce"},
      {train + "--dpeth=8", "--dpeth"},
      {"synth --out=/tmp/gbdt_cli_unread.libsvm --instances=50 --trees=3",
       "--trees"}};
  for (const auto& [args, flag] : cases) {
    const auto r = run(args);
    EXPECT_EQ(r.exit_code, 2) << args << ": " << r.output;
    EXPECT_NE(r.output.find(flag), std::string::npos)
        << args << ": " << r.output;
  }
}

// --feature-bag takes the words sqrt and all, or a whole positive count.
TEST_F(CliTest, FeatureBagRejectsTrailingCharacters) {
  const std::string train =
      "train --data=/tmp/gbdt_cli_train.libsvm --model=/tmp/x.model "
      "--trees=2 --depth=2 --feature-bag=";
  const auto r = run(train + "5x");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("--feature-bag"), std::string::npos) << r.output;
  for (const char* ok : {"5", "sqrt", "all"}) {
    EXPECT_EQ(run(train + ok).exit_code, 0) << ok;
  }
}

// gbdt_fuzz parses its counts whole, so a typo cannot gate zero cases.
TEST_F(CliTest, FuzzRejectsMalformedCaseCount) {
  const auto r = run_tool(GBDT_FUZZ_PATH, "--cases abc");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("--cases"), std::string::npos) << r.output;
  EXPECT_EQ(run_tool(GBDT_FUZZ_PATH, "--cases 0x2").exit_code, 0);
}

// gbdt_bench parses its threshold whole, so a typo cannot gate at 0 %.
TEST_F(CliTest, BenchRejectsMalformedThreshold) {
  {
    std::ofstream suite("/tmp/gbdt_cli_suite.json");
    suite << R"({"schema": "gbdt-bench-suite-v1", "benches": {}})" << '\n';
  }
  const std::string compare =
      "--compare-only --json=/tmp/gbdt_cli_suite.json "
      "--compare=/tmp/gbdt_cli_suite.json --threshold=";
  const auto r = run_tool(GBDT_BENCH_PATH, compare + "abc");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("--threshold"), std::string::npos) << r.output;
  EXPECT_EQ(run_tool(GBDT_BENCH_PATH, compare + "2.5").exit_code, 0);
}

TEST_F(CliTest, DeviceSelection) {
  for (const char* dev : {"titanx", "p100", "k20"}) {
    const auto r = run(std::string("train --data=/tmp/gbdt_cli_train.libsvm "
                                   "--model=/tmp/gbdt_cli_dev.model "
                                   "--trees=2 --depth=2 --device=") +
                       dev);
    EXPECT_EQ(r.exit_code, 0) << dev << ": " << r.output;
  }
  EXPECT_NE(run("train --data=/tmp/gbdt_cli_train.libsvm "
                "--model=/tmp/x.model --device=voodoo2")
                .exit_code,
            0);
}

}  // namespace
