// Tests of the example binaries' command lines (examples/cli.h and the run
// and deployment flag groups): every exit path of cli::parse, the generated
// usage, and that a full deployment flag set fills deploy::Options as the
// launch scripts expect.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "cli.h"
#include "deploy_common.h"
#include "run_setup.h"

namespace {

// argv for cli::parse, with a program name in front.
class Argv {
 public:
  Argv(std::initializer_list<const char*> args) : strings_{"prog"} {
    strings_.insert(strings_.end(), args.begin(), args.end());
    for (std::string& s : strings_) pointers_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> strings_;
  std::vector<char*> pointers_;
};

void parse(cli::Table table, std::initializer_list<const char*> args) {
  Argv a(args);
  cli::parse(a.argc(), a.argv(), table);
}

// A small table with one row of every kind.
struct Demo {
  std::uint64_t seed = 42;
  int clients = 10;
  double gamma = 5.0;
  std::string dataset = "digits";
  std::string out;
  bool dba = false;

  cli::Table table() {
    return {
        cli::u64("seed", "", "RNG seed", seed),
        cli::integer("--clients", "N", "number of clients", clients),
        cli::real("--gamma", "G", "amplification", gamma),
        cli::choice("--dataset", "digits|fashion", "task (default digits)", "dataset",
                    [this](const std::string& v) {
                      if (v != "digits" && v != "fashion") return false;
                      dataset = v;
                      return true;
                    }),
        cli::text("--out", "PATH", "output file", out),
        cli::toggle("--dba", "split the trigger", [this] { dba = true; }),
    };
  }
};

class CommandLineDeathTest : public ::testing::Test {
 protected:
  // Re-execute the test binary for each death test instead of forking a
  // process that may already run pool threads.
  void SetUp() override { ::testing::FLAGS_gtest_death_test_style = "threadsafe"; }
};

}  // namespace

TEST(CommandLine, StrictNumberParsers) {
  EXPECT_EQ(cli::parse_int("-12"), -12);
  EXPECT_EQ(cli::parse_int("2147483647"), 2147483647);
  EXPECT_FALSE(cli::parse_int("2147483648"));
  EXPECT_FALSE(cli::parse_int("12x"));
  EXPECT_FALSE(cli::parse_int("-"));
  EXPECT_FALSE(cli::parse_int(""));
  EXPECT_EQ(cli::parse_u64("18446744073709551615"), UINT64_MAX);
  EXPECT_FALSE(cli::parse_u64("18446744073709551616"));
  EXPECT_FALSE(cli::parse_u64("-1"));
  EXPECT_EQ(cli::parse_double("0.25"), 0.25);
  EXPECT_EQ(cli::parse_double("-3"), -3.0);
  EXPECT_FALSE(cli::parse_double("1.5x"));
  EXPECT_FALSE(cli::parse_double("inf"));
  EXPECT_FALSE(cli::parse_double("nan"));
  EXPECT_FALSE(cli::parse_double(""));
}

TEST(CommandLine, ParsesEveryRowKind) {
  Demo d;
  parse(d.table(), {"--clients", "7", "--dba", "--dataset", "fashion", "123", "--gamma",
                    "0.5", "--out", "m.fckp"});
  EXPECT_EQ(d.seed, 123u);
  EXPECT_EQ(d.clients, 7);
  EXPECT_EQ(d.gamma, 0.5);
  EXPECT_EQ(d.dataset, "fashion");
  EXPECT_EQ(d.out, "m.fckp");
  EXPECT_TRUE(d.dba);
}

TEST(CommandLine, NoArgumentsKeepTheDefaults) {
  Demo d;
  parse(d.table(), {});
  EXPECT_EQ(d.seed, 42u);
  EXPECT_EQ(d.clients, 10);
  EXPECT_FALSE(d.dba);
}

TEST(CommandLine, UsageListsEveryRowWithItsDefault) {
  Demo d;
  const std::string usage = cli::usage("prog", d.table());
  EXPECT_EQ(usage.rfind("usage: prog [seed] [options]\n", 0), 0u) << usage;
  for (const char* line : {"  seed ", "RNG seed (default 42)", "  --clients N ",
                           "number of clients (default 10)", "amplification (default 5)",
                           "  --dataset digits|fashion ", "  --out PATH ", "  --dba "}) {
    EXPECT_NE(usage.find(line), std::string::npos) << line << "\n" << usage;
  }
}

TEST(CommandLine, DeployUsageShowsEachBinarysDefaults) {
  deploy::Options opt;
  const std::string deploy_usage = cli::usage("prog", deploy::flags(opt));
  run::Options ro;
  const std::string run_usage = cli::usage("prog", run::flags(ro));
  EXPECT_NE(deploy_usage.find("snapshot every N rounds (default 1)"), std::string::npos);
  EXPECT_NE(run_usage.find("snapshot every N rounds (default 5)"), std::string::npos);
  EXPECT_NE(deploy_usage.find("scheduler address (default 127.0.0.1)"), std::string::npos);
}

TEST_F(CommandLineDeathTest, HelpPrintsUsageAndExitsZero) {
  Demo d;
  EXPECT_EXIT(parse(d.table(), {"--help"}), ::testing::ExitedWithCode(0), "");
  EXPECT_EXIT(parse(d.table(), {"--clients", "3", "-h"}), ::testing::ExitedWithCode(0), "");
}

TEST_F(CommandLineDeathTest, MissingValueExitsTwo) {
  Demo d;
  EXPECT_EXIT(parse(d.table(), {"--clients"}), ::testing::ExitedWithCode(2),
              "missing value for --clients\nusage: prog");
}

TEST_F(CommandLineDeathTest, MalformedNumbersExitTwo) {
  Demo d;
  EXPECT_EXIT(parse(d.table(), {"--clients", "abc"}), ::testing::ExitedWithCode(2),
              "--clients wants a whole decimal number, got 'abc'");
  EXPECT_EXIT(parse(d.table(), {"--clients", "99999999999"}), ::testing::ExitedWithCode(2),
              "--clients wants a whole decimal number");
  EXPECT_EXIT(parse(d.table(), {"-5"}), ::testing::ExitedWithCode(2),
              "seed wants a whole non-negative decimal number, got '-5'");
  EXPECT_EXIT(parse(d.table(), {"18446744073709551616"}), ::testing::ExitedWithCode(2),
              "seed wants a whole non-negative decimal number");
  EXPECT_EXIT(parse(d.table(), {"--gamma", "1.5x"}), ::testing::ExitedWithCode(2),
              "--gamma wants a decimal number, got '1.5x'");
  EXPECT_EXIT(parse(d.table(), {"--gamma", "inf"}), ::testing::ExitedWithCode(2),
              "--gamma wants a decimal number");
}

TEST_F(CommandLineDeathTest, UnknownChoiceExitsTwo) {
  Demo d;
  EXPECT_EXIT(parse(d.table(), {"--dataset", "objects"}), ::testing::ExitedWithCode(2),
              "unknown dataset objects \\(want digits\\|fashion\\)");
}

TEST_F(CommandLineDeathTest, UnknownFlagAndExtraArgumentExitTwo) {
  Demo d;
  EXPECT_EXIT(parse(d.table(), {"--no-such-flag"}), ::testing::ExitedWithCode(2),
              "unknown option --no-such-flag\nusage: prog");
  EXPECT_EXIT(parse(d.table(), {"42", "7"}), ::testing::ExitedWithCode(2),
              "unexpected argument 7");
}

TEST_F(CommandLineDeathTest, ResumeWithoutCheckpointDirExitsTwo) {
  run::Options opt;
  Argv a({"--resume"});
  cli::parse(a.argc(), a.argv(), run::flags(opt));
  ASSERT_TRUE(opt.resume);
  EXPECT_EXIT(run::Session("test", a.argc(), a.argv(), opt), ::testing::ExitedWithCode(2),
              "--resume requires --checkpoint-dir");
}

TEST_F(CommandLineDeathTest, UnopenableJournalExitsTwo) {
  run::Options opt;
  opt.journal_path = "/nonexistent-dir/run.jsonl";
  Argv a({});
  EXPECT_EXIT(run::Session("test", a.argc(), a.argv(), opt), ::testing::ExitedWithCode(2),
              "cannot open journal /nonexistent-dir/run.jsonl");
}

TEST(CommandLine, DeployFlagSetFillsOptions) {
  deploy::Options opt;
  parse(deploy::flags(opt),
        {"--seed", "18446744073709551615", "--clients", "8", "--rounds", "4",
         "--ft-rounds", "2", "--samples-train", "40", "--samples-test", "10",
         "--scheduler-host", "10.0.0.1", "--scheduler-port", "7000", "--journal-out",
         "run.jsonl", "--metrics-port", "0", "--metrics-port-file", "m.port",
         "--trace-out", "t.json", "--recv-timeout-ms", "3000", "--max-backoff-shift", "5",
         "--connect-timeout-ms", "100", "--accept-timeout-ms", "20",
         "--max-connect-retries", "4", "--backoff-base-ms", "7", "--backoff-cap-ms", "900",
         "--heartbeat-interval-ms", "100", "--heartbeat-timeout-ms", "2000",
         "--scan-quant", "int8", "--update-codec", "int8", "--checkpoint-dir", "ckpt",
         "--checkpoint-every", "3", "--resume"});
  EXPECT_EQ(opt.seed, UINT64_MAX);
  EXPECT_EQ(opt.clients, 8);
  EXPECT_EQ(opt.rounds, 4);
  EXPECT_EQ(opt.ft_rounds, 2);
  EXPECT_EQ(opt.samples_train, 40);
  EXPECT_EQ(opt.samples_test, 10);
  EXPECT_EQ(opt.scheduler_host, "10.0.0.1");
  EXPECT_EQ(opt.scheduler_port, 7000);
  EXPECT_EQ(opt.metrics_port, 0);
  EXPECT_EQ(opt.metrics_port_file, "m.port");
  EXPECT_EQ(opt.recv_timeout_ms, 3000);
  EXPECT_EQ(opt.max_backoff_shift, 5);
  EXPECT_EQ(opt.transport.connect_timeout_ms, 100);
  EXPECT_EQ(opt.transport.accept_timeout_ms, 20);
  EXPECT_EQ(opt.transport.max_connect_retries, 4);
  EXPECT_EQ(opt.transport.backoff_base_ms, 7);
  EXPECT_EQ(opt.transport.backoff_cap_ms, 900);
  EXPECT_EQ(opt.transport.heartbeat_interval_ms, 100);
  EXPECT_EQ(opt.transport.heartbeat_timeout_ms, 2000);
  EXPECT_EQ(opt.run.journal_path, "run.jsonl");
  EXPECT_EQ(opt.run.trace_path, "t.json");
  EXPECT_EQ(opt.run.checkpoint_dir, "ckpt");
  EXPECT_EQ(opt.run.checkpoint_every, 3);
  EXPECT_TRUE(opt.run.resume);
  EXPECT_EQ(opt.run.scan_kernel, fedcleanse::tensor::ComputeKernel::kInt8);
  EXPECT_EQ(opt.run.update_codec, fedcleanse::comm::UpdateCodec::kInt8);

  // The config every node derives from those flags.
  const auto cfg = deploy::make_simulation_config(opt);
  EXPECT_EQ(cfg.n_clients, 8);
  EXPECT_EQ(cfg.rounds, 4);
  EXPECT_EQ(cfg.seed, UINT64_MAX);
  EXPECT_EQ(cfg.samples_per_class_train, 40);
  EXPECT_EQ(cfg.fault.recv_timeout_ms, 3000);
  EXPECT_EQ(cfg.protocol.max_backoff_shift, 5);
  EXPECT_EQ(cfg.protocol.transport.jitter_seed, UINT64_MAX);
  EXPECT_EQ(cfg.protocol.transport.backoff_cap_ms, 900);
  EXPECT_EQ(cfg.train.scan_kernel, fedcleanse::tensor::ComputeKernel::kInt8);
  EXPECT_EQ(cfg.train.update_codec, fedcleanse::comm::UpdateCodec::kInt8);
  EXPECT_EQ(deploy::make_defense_config(opt).finetune.max_rounds, 2);
}

TEST(CommandLine, DeployDefaultsMatchTheLaunchScripts) {
  deploy::Options opt;
  parse(deploy::flags(opt), {});
  EXPECT_EQ(opt.seed, 42u);
  EXPECT_EQ(opt.clients, 5);
  EXPECT_EQ(opt.rounds, 3);
  EXPECT_EQ(opt.ft_rounds, 3);
  EXPECT_EQ(opt.metrics_port, -1);
  EXPECT_EQ(opt.run.checkpoint_every, 1);
  EXPECT_FALSE(opt.run.resume);
  EXPECT_EQ(opt.run.scan_kernel, fedcleanse::tensor::ComputeKernel::kF32);
  EXPECT_EQ(opt.run.update_codec, fedcleanse::comm::UpdateCodec::kF32);
}
