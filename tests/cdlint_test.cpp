// Regression tests for tools/cdlint: the corpus must keep producing the
// golden findings (every rule stays live) and the real tree must stay clean
// against the committed -- empty -- baseline.
#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "serve/json.hpp"

namespace {

namespace serve = cosmicdance::serve;

struct RunResult {
  int exit_code = -1;
  std::string output;
};

/// Runs a shell command, capturing stdout; stderr (the summary line) is
/// dropped so assertions see only the findings stream.
RunResult run_command(const std::string& command) {
  RunResult result;
  FILE* pipe = popen((command + " 2>/dev/null").c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    result.output.append(buffer, n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string quoted(const std::string& path) { return "'" + path + "'"; }

const std::string kBinary = CDLINT_BINARY;
const std::string kRepoRoot = CDLINT_REPO_ROOT;
const std::string kCorpusRoot = kRepoRoot + "/tools/cdlint/testdata/tree";
const std::string kGoldenPath = kRepoRoot + "/tools/cdlint/testdata/golden.txt";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::size_t count_lines(const std::string& text) {
  std::size_t lines = 0;
  for (const char c : text) {
    if (c == '\n') ++lines;
  }
  return lines;
}

TEST(CdlintTest, CorpusMatchesGoldenFindings) {
  const RunResult result =
      run_command(quoted(kBinary) + " --root " + quoted(kCorpusRoot));
  EXPECT_EQ(result.exit_code, 1) << "seeded corpus must produce findings";
  const std::string golden = read_file(kGoldenPath);
  ASSERT_FALSE(golden.empty()) << "missing golden file: " << kGoldenPath;
  EXPECT_EQ(result.output, golden);
}

TEST(CdlintTest, CorpusJsonIsValidAndCoversEveryRule) {
  const RunResult result = run_command(quoted(kBinary) + " --root " +
                                       quoted(kCorpusRoot) + " --json");
  EXPECT_EQ(result.exit_code, 1);
  const auto doc = serve::parse_json(result.output);
  ASSERT_TRUE(doc.has_value()) << "cdlint --json emitted invalid JSON:\n"
                               << result.output;
  ASSERT_EQ(doc->kind, serve::JsonValue::Kind::kObject);

  const serve::JsonValue* findings = doc->find("findings");
  ASSERT_NE(findings, nullptr);
  ASSERT_EQ(findings->kind, serve::JsonValue::Kind::kArray);

  // The JSON view must agree with the golden text view line for line.
  const std::size_t golden_lines = count_lines(read_file(kGoldenPath));
  EXPECT_EQ(findings->items.size(), golden_lines);
  const serve::JsonValue* count = doc->find("count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->text, std::to_string(golden_lines));
  const serve::JsonValue* baselined = doc->find("baselined");
  ASSERT_NE(baselined, nullptr);
  EXPECT_EQ(baselined->text, "0");

  // Every rule -- including the allow-reason meta rule -- must stay live in
  // the corpus, or a silently dead rule could rot unnoticed.
  std::set<std::string> rules_seen;
  for (const serve::JsonValue& finding : findings->items) {
    ASSERT_EQ(finding.kind, serve::JsonValue::Kind::kObject);
    const serve::JsonValue* file = finding.find("file");
    const serve::JsonValue* line = finding.find("line");
    const serve::JsonValue* rule = finding.find("rule");
    const serve::JsonValue* message = finding.find("message");
    ASSERT_NE(file, nullptr);
    ASSERT_NE(line, nullptr);
    ASSERT_NE(rule, nullptr);
    ASSERT_NE(message, nullptr);
    EXPECT_EQ(line->kind, serve::JsonValue::Kind::kNumber);
    EXPECT_FALSE(message->text.empty());
    rules_seen.insert(rule->text);
  }
  const std::set<std::string> expected{
      "nondeterminism", "unordered-iter", "raw-parse", "naked-throw",
      "counter-in-loop", "stdout-in-lib", "include-first", "no-endl",
      "shared-mutable-capture", "lock-order-cycle", "blocking-under-lock",
      "thread-no-join", "fp-accumulation-order", "relaxed-order",
      "allow-reason"};
  EXPECT_EQ(rules_seen, expected);
}

TEST(CdlintTest, RealTreeIsCleanAgainstCommittedBaseline) {
  const RunResult result = run_command(
      quoted(kBinary) + " --root " + quoted(kRepoRoot) + " --baseline " +
      quoted(kRepoRoot + "/tools/cdlint/baseline.txt"));
  EXPECT_EQ(result.exit_code, 0) << "non-baselined findings in the tree:\n"
                                 << result.output;
  EXPECT_TRUE(result.output.empty()) << result.output;
}

TEST(CdlintTest, BaselineEntryConsumesExactlyOneFinding) {
  // unordered_out.cpp line 12 carries TWO identical findings (.begin() and
  // .end()).  One baseline entry must consume exactly one of them: entries
  // are a multiset, not a pattern.
  const std::string baseline_path =
      ::testing::TempDir() + "cdlint_consume_baseline.txt";
  {
    std::ofstream out(baseline_path, std::ios::trunc);
    out << "# one entry, two identical findings on the line\n"
        << "unordered-iter|src/core/unordered_out.cpp|"
        << "for (auto it = seen.begin(); it != seen.end(); ++it) {\n";
  }
  const RunResult result =
      run_command(quoted(kBinary) + " --root " + quoted(kCorpusRoot) +
                  " --baseline " + quoted(baseline_path));
  EXPECT_EQ(result.exit_code, 1);
  const std::size_t golden_lines = count_lines(read_file(kGoldenPath));
  EXPECT_EQ(count_lines(result.output), golden_lines - 1);
  EXPECT_NE(result.output.find("unordered_out.cpp:12"), std::string::npos)
      << "the second identical finding must survive one baseline entry";
  std::remove(baseline_path.c_str());
}

TEST(CdlintTest, UnknownOptionIsAUsageError) {
  const RunResult result = run_command(quoted(kBinary) + " --no-such-flag");
  EXPECT_EQ(result.exit_code, 2);
}

TEST(CdlintTest, NegativeThreadsIsAUsageError) {
  const RunResult result = run_command(quoted(kBinary) + " --root " +
                                       quoted(kCorpusRoot) + " --threads -3");
  EXPECT_EQ(result.exit_code, 2);
}

TEST(CdlintTest, FindingsAreByteIdenticalAcrossThreadCounts) {
  // The dogfooding contract: the parallel scan must produce exactly the
  // serial scan's bytes -- same findings, same order -- in both the text
  // and the JSON view.
  const RunResult serial = run_command(
      quoted(kBinary) + " --root " + quoted(kCorpusRoot) + " --threads 1");
  EXPECT_EQ(serial.exit_code, 1);
  ASSERT_FALSE(serial.output.empty());
  const RunResult serial_json =
      run_command(quoted(kBinary) + " --root " + quoted(kCorpusRoot) +
                  " --threads 1 --json");
  for (const int threads : {4, 8}) {
    const std::string flag = " --threads " + std::to_string(threads);
    const RunResult parallel = run_command(
        quoted(kBinary) + " --root " + quoted(kCorpusRoot) + flag);
    EXPECT_EQ(parallel.output, serial.output) << "threads=" << threads;
    const RunResult parallel_json = run_command(
        quoted(kBinary) + " --root " + quoted(kCorpusRoot) + flag + " --json");
    EXPECT_EQ(parallel_json.output, serial_json.output)
        << "threads=" << threads;
  }
}

TEST(CdlintTest, JsonFindingsAreSortedRegardlessOfDirOrder) {
  // Scan dirs given in reverse order on the command line: findings must
  // still come out sorted by (file, line, rule), not in scan order.
  const RunResult result = run_command(quoted(kBinary) + " --root " +
                                       quoted(kCorpusRoot) +
                                       " --json tests src");
  EXPECT_EQ(result.exit_code, 1);
  const auto doc = serve::parse_json(result.output);
  ASSERT_TRUE(doc.has_value());
  const serve::JsonValue* findings = doc->find("findings");
  ASSERT_NE(findings, nullptr);
  ASSERT_GT(findings->items.size(), 1u);
  std::vector<std::tuple<std::string, long, std::string>> keys;
  for (const serve::JsonValue& finding : findings->items) {
    keys.emplace_back(finding.find("file")->text,
                      finding.find("line")->integer().value_or(-1),
                      finding.find("rule")->text);
  }
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()))
      << "findings not sorted by (file, line, rule)";
  // Both dirs must actually be present: sorted output, full coverage.
  EXPECT_EQ(std::get<0>(keys.front()).rfind("src/", 0), 0u);
  EXPECT_EQ(std::get<0>(keys.back()).rfind("tests/", 0), 0u);
}

TEST(CdlintTest, AllowDirectiveInterplayWithCrossFileRules) {
  const RunResult result =
      run_command(quoted(kBinary) + " --root " + quoted(kCorpusRoot));
  // A reasoned allow on the write line and one on the capture line both
  // suppress the phase-2 shared-mutable-capture finding...
  EXPECT_EQ(result.output.find("parallel_capture.cpp:43"), std::string::npos)
      << "allow on the write line must suppress the R9 finding";
  EXPECT_EQ(result.output.find("parallel_capture.cpp:52"), std::string::npos)
      << "allow on the capture line must suppress the R9 finding";
  // ...while a reasonless allow suppresses nothing: the R9 finding fires
  // AND the meta rule reports the empty justification.
  EXPECT_NE(
      result.output.find(
          "parallel_capture.cpp:59: [allow-reason]"),
      std::string::npos);
  EXPECT_NE(
      result.output.find(
          "parallel_capture.cpp:61: [shared-mutable-capture]"),
      std::string::npos);
  // Cross-file allows hold for the other phase-2 rules too: the reversed
  // allowed_e_/allowed_f_ nesting and the deferred-join spawn are silent.
  EXPECT_EQ(result.output.find("allowed_e_"), std::string::npos);
  EXPECT_EQ(result.output.find("background"), std::string::npos);
}

TEST(CdlintTest, DumpIndexExposesCrossFileRecords) {
  const RunResult result = run_command(
      quoted(kBinary) + " --root " + quoted(kCorpusRoot) + " --dump-index");
  EXPECT_EQ(result.exit_code, 0) << "--dump-index reports no findings";
  // Spot-check one record of each cross-file species the phase-2 rules
  // consume, exactly as serialized between scan workers and the merge.
  EXPECT_NE(result.output.find("file\tsrc/serve/worker_spawn.cpp"),
            std::string::npos);
  EXPECT_NE(result.output.find("spawn\torphan\t"), std::string::npos);
  EXPECT_NE(result.output.find("spawn\t<temporary>\t"), std::string::npos);
  EXPECT_NE(result.output.find("join\tworker\t"), std::string::npos);
  EXPECT_NE(result.output.find("movealias\tkeepers_\tdrained"),
            std::string::npos);
  EXPECT_NE(result.output.find("rangealias\tworker\tdrained"),
            std::string::npos);
  EXPECT_NE(result.output.find("edge\torder_a_\torder_b_\t"),
            std::string::npos);
  EXPECT_NE(result.output.find("block\tread\tstate_mutex_\t"),
            std::string::npos);
  EXPECT_NE(result.output.find("mutex\tstate_mutex_\t"), std::string::npos);
  EXPECT_NE(result.output.find("threadvec\tkeepers_\t"), std::string::npos);
  EXPECT_NE(result.output.find("par\tparallel_for\t"), std::string::npos);
  EXPECT_NE(result.output.find("parcap\tref\tresults"), std::string::npos);
  EXPECT_NE(result.output.find("parwrite\ttotal\t"), std::string::npos);
  EXPECT_NE(result.output.find("fp\treduce\t"), std::string::npos);
  EXPECT_NE(result.output.find("relaxed\t"), std::string::npos);
  EXPECT_NE(result.output.find("allow\t"), std::string::npos);
}

}  // namespace
