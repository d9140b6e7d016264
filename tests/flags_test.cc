// util/flags.h: strict typed parsing, error messages that name the flag,
// and a --help generated from the same table as the parser.

#include "util/flags.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "graph/graph_source.h"
#include "gthinker/engine_config.h"

namespace qcm {
namespace {

/// Every typed target the parser supports, bound in one FlagSet.
struct Targets {
  int i32 = 0;
  int64_t i64 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  uint16_t u16 = 0;
  double f = 0;
  std::string str;
  bool on = false;
  DecomposeMode mode = DecomposeMode::kNone;
};

FlagSet MakeFlags(Targets* t) {
  FlagSet flags("flags_test [flags]");
  flags.Int("--i32", &t->i32, "int");
  flags.Int("--i64", &t->i64, "int64");
  flags.Int("--u32", &t->u32, "uint32");
  flags.Int("--u64", &t->u64, "uint64");
  flags.Int("--u16", &t->u16, "uint16");
  flags.Double("--f", &t->f, "double");
  flags.String("--str", &t->str, "S", "string");
  flags.Bool("--on", &t->on, "bool");
  flags.Enum("--mode", &t->mode,
             {{"none", DecomposeMode::kNone},
              {"time", DecomposeMode::kTimeDelayed}},
             "enum");
  return flags;
}

Status ParseArgs(FlagSet* flags, std::vector<std::string> args) {
  std::vector<const char*> argv = {"flags_test"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  return flags->Parse(static_cast<int>(argv.size()), argv.data());
}

struct RejectCase {
  std::vector<std::string> args;
  std::string named;  // the flag or token the error must mention
};

TEST(FlagsTest, StrictParsingRejectsMalformedValues) {
  const std::vector<RejectCase> cases = {
      {{"--f", "0.9x"}, "--f"},
      {{"--i32", ""}, "--i32"},
      {{"--f", ""}, "--f"},
      {{"--u32", "-1"}, "--u32"},
      {{"--u64", "-1"}, "--u64"},
      {{"--f", "1e400"}, "--f"},
      {{"--f", "nan"}, "--f"},
      {{"--f", "inf"}, "--f"},
      {{"--i64", "9223372036854775808"}, "--i64"},
      {{"--i32", "2147483648"}, "--i32"},
      {{"--u32", "4294967296"}, "--u32"},
      {{"--u16", "65536"}, "--u16"},
      {{"--i32", "2abc"}, "--i32"},
      {{"--i32", " 5"}, "--i32"},
      {{"--i32", "0x10"}, "--i32"},
      {{"--i32", "1.5"}, "--i32"},
      {{"--mode", "sometimes"}, "--mode"},
      {{"--nope", "1"}, "--nope"},
      {{"stray"}, "stray"},
      {{"--i32"}, "--i32"},
      {{"--on", "true"}, "--on"},
      {{"--on", "1"}, "--on"},
  };
  for (const RejectCase& c : cases) {
    Targets t;
    FlagSet flags = MakeFlags(&t);
    const Status s = ParseArgs(&flags, c.args);
    std::string joined;
    for (const std::string& a : c.args) joined += "[" + a + "]";
    ASSERT_FALSE(s.ok()) << joined;
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << joined;
    EXPECT_NE(s.message().find(c.named), std::string::npos)
        << joined << " -> " << s.message();
  }
}

TEST(FlagsTest, RejectedValueLeavesTargetUntouched) {
  Targets t;
  t.u32 = 7;
  FlagSet flags = MakeFlags(&t);
  EXPECT_FALSE(ParseArgs(&flags, {"--u32", "-1"}).ok());
  EXPECT_EQ(t.u32, 7u);
}

TEST(FlagsTest, AcceptsWellFormedValuesAtTheTypeLimits) {
  Targets t;
  FlagSet flags = MakeFlags(&t);
  ASSERT_TRUE(ParseArgs(&flags, {"--i32", "-2147483648", "--i64",
                                 "9223372036854775807", "--u32",
                                 "4294967295", "--u64",
                                 "18446744073709551615", "--u16", "65535",
                                 "--f", "1e-3", "--str", "-", "--on",
                                 "--mode", "time"})
                  .ok());
  EXPECT_EQ(t.i32, INT32_MIN);
  EXPECT_EQ(t.i64, INT64_MAX);
  EXPECT_EQ(t.u32, UINT32_MAX);
  EXPECT_EQ(t.u64, UINT64_MAX);
  EXPECT_EQ(t.u16, 65535);
  EXPECT_DOUBLE_EQ(t.f, 0.001);
  EXPECT_EQ(t.str, "-");  // a value token may look like a flag
  EXPECT_TRUE(t.on);
  EXPECT_EQ(t.mode, DecomposeMode::kTimeDelayed);
}

TEST(FlagsTest, HelpStopsParsingAndIsReported) {
  Targets t;
  FlagSet flags = MakeFlags(&t);
  ASSERT_TRUE(ParseArgs(&flags, {"--i32", "3", "--help", "--bogus"}).ok());
  EXPECT_TRUE(flags.help_requested());
  EXPECT_EQ(t.i32, 3);
}

/// Flag name -> its help entry (the text up to the next flag).
std::map<std::string, std::string> HelpEntries(const std::string& help,
                                               int* entries) {
  std::map<std::string, std::string> out;
  *entries = 0;
  size_t pos = help.find("\n  --");
  while (pos != std::string::npos) {
    const size_t next = help.find("\n  --", pos + 1);
    const std::string entry = help.substr(pos + 3, next - pos - 3);
    const std::string name = entry.substr(0, entry.find_first_of(" \n"));
    out[name] = entry;
    ++*entries;
    pos = next;
  }
  return out;
}

TEST(FlagsTest, HelpListsEveryEngineFlagOnceWithItsDefault) {
  GraphSource source;
  EngineConfig config;
  config.num_machines = 3;
  FlagSet flags("qcm_tool [flags]");
  RegisterGraphSourceFlags(&flags, &source);
  flags.Int("--workers", &config.num_machines, "workers");
  RegisterEngineFlags(&flags, &config);
  RegisterClusterEngineFlags(&flags, &config);
  const std::string help = flags.Help();

  int entries = 0;
  const std::map<std::string, std::string> by_name =
      HelpEntries(help, &entries);
  // Each entry names a distinct flag: no flag is listed twice.
  EXPECT_EQ(static_cast<size_t>(entries), by_name.size()) << help;

  const std::map<std::string, std::string> expected_defaults = {
      {"--input", "\"\""},
      {"--gen-planted", "\"\""},
      {"--seed", "1"},
      {"--workers", "3"},
      {"--threads", "2"},
      {"--gamma", "0.9"},
      {"--min-size", "10"},
      {"--dense-threshold", "4096"},
      {"--tau-split", "100"},
      {"--tau-time", "0.01"},
      {"--mode", "time"},
      {"--cache-capacity", "65536"},
      {"--cache-policy", "lru"},
      {"--pull-batch", "2048"},
      {"--net-latency", "0"},
      {"--net-latency-ticks", "0"},
      {"--prefetch", "false"},
      {"--prefetch-limit", "64"},
      {"--steal-rtt-ref", "0.001"},
      {"--steal-batch-factor", "8"},
      {"--trace-out", "\"\""},
      {"--trace-buffer-kb", "256"},
      {"--stats-interval-ms", "500"},
      {"--net-coalesce-bytes", "0"},
      {"--net-linger-usec", "0"},
      {"--heartbeat-usec", "100000"},
      {"--checkpoint-interval", "0.25"},
      {"--graph-page-size", "65536"},
      {"--graph-memory-budget", "0"},
  };
  EXPECT_EQ(by_name.size(), expected_defaults.size()) << help;
  for (const auto& [name, def] : expected_defaults) {
    auto it = by_name.find(name);
    ASSERT_NE(it, by_name.end()) << name << " missing from\n" << help;
    EXPECT_NE(it->second.find("(default " + def + ")"), std::string::npos)
        << name << ": " << it->second;
  }
}

TEST(FlagsTest, HelpDefaultIsTheBoundFieldsValueAtRegistration) {
  EngineConfig config;
  config.mining.gamma = 0.75;
  config.mode = DecomposeMode::kSizeThreshold;
  FlagSet flags("qcm_tool [flags]");
  RegisterEngineFlags(&flags, &config);
  const std::string help = flags.Help();
  EXPECT_NE(help.find("(default 0.75)"), std::string::npos) << help;
  EXPECT_NE(help.find("(default size)"), std::string::npos) << help;
}

TEST(FlagsTest, UnknownCachePolicyIsRejectedNotDefaulted) {
  EngineConfig config;
  config.cache_policy = CachePolicy::kClock;
  FlagSet flags("qcm_tool [flags]");
  RegisterEngineFlags(&flags, &config);
  const Status s = ParseArgs(&flags, {"--cache-policy", "mru"});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // The flag reports ParseCachePolicy's error: its location and the one
  // vocabulary, declared next to CachePolicy.
  EXPECT_NE(s.message().find("--cache-policy: engine_config.cc:"),
            std::string::npos)
      << s.message();
  EXPECT_NE(s.message().find("\"mru\" (expected lru | clock | tinylfu)"),
            std::string::npos)
      << s.message();
  EXPECT_EQ(config.cache_policy, CachePolicy::kClock);
}

TEST(FlagsTest, EngineFlagsWriteThroughAndLeaveRangeChecksToValidate) {
  EngineConfig config;
  FlagSet flags("qcm_tool [flags]");
  RegisterEngineFlags(&flags, &config);
  // Well-typed but out of the engine's domain: parsing accepts it...
  ASSERT_TRUE(ParseArgs(&flags, {"--gamma", "0.3", "--mode", "size",
                                 "--cache-policy", "tinylfu",
                                 "--steal-batch-factor", "0"})
                  .ok());
  EXPECT_DOUBLE_EQ(config.mining.gamma, 0.3);
  EXPECT_EQ(config.mode, DecomposeMode::kSizeThreshold);
  EXPECT_EQ(config.cache_policy, CachePolicy::kTinyLFU);
  // ...and Validate() is the one place that rejects it.
  EXPECT_FALSE(config.Validate().ok());
}

}  // namespace
}  // namespace qcm
