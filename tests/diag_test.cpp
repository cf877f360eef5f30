// Unit tests for the cosmicdance::diag data-quality subsystem: policies,
// error categories, the ParseLog accumulator, deterministic merging, and
// report serialisation (rows / JSON / printed summary).
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "diag/diag.hpp"
#include "serve/json.hpp"

namespace cosmicdance::diag {
namespace {

// ---- policies and categories ----------------------------------------------

TEST(DiagPolicy, RoundTripsNames) {
  EXPECT_STREQ(to_string(ParsePolicy::kStrict), "strict");
  EXPECT_STREQ(to_string(ParsePolicy::kTolerant), "tolerant");
  EXPECT_EQ(parse_policy_from_string("strict"), ParsePolicy::kStrict);
  EXPECT_EQ(parse_policy_from_string("tolerant"), ParsePolicy::kTolerant);
}

TEST(DiagPolicy, RejectsUnknownNames) {
  EXPECT_THROW(static_cast<void>(parse_policy_from_string("")), ParseError);
  EXPECT_THROW(static_cast<void>(parse_policy_from_string("lenient")), ParseError);
  EXPECT_THROW(static_cast<void>(parse_policy_from_string("STRICT")), ParseError);
}

TEST(DiagCategory, EveryCategoryHasAUniqueName) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < kErrorCategoryCount; ++i) {
    names.insert(to_string(static_cast<ErrorCategory>(i)));
  }
  EXPECT_EQ(names.size(), kErrorCategoryCount);
  EXPECT_STREQ(to_string(ErrorCategory::kSyntax), "syntax");
  EXPECT_STREQ(to_string(ErrorCategory::kChecksum), "checksum");
  EXPECT_STREQ(to_string(ErrorCategory::kNumeric), "numeric");
  EXPECT_STREQ(to_string(ErrorCategory::kRange), "range");
  EXPECT_STREQ(to_string(ErrorCategory::kStructure), "structure");
}

TEST(DiagCategory, ParseErrorCarriesItsCategory) {
  const ParseError plain("oops");
  EXPECT_EQ(plain.category(), ErrorCategory::kSyntax);
  const ParseError tagged("oops", ErrorCategory::kChecksum);
  EXPECT_EQ(tagged.category(), ErrorCategory::kChecksum);
}

// ---- ParseLog ---------------------------------------------------------------

TEST(ParseLogTest, StrictRejectThrowsActionableError) {
  ParseLog log(ParsePolicy::kStrict);
  try {
    log.reject("tle", ErrorCategory::kChecksum, "checksum mismatch",
               "1 25544U ...", RecordRef{"catalog.tle", 42});
    FAIL() << "strict reject must throw";
  } catch (const ParseError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("catalog.tle"), std::string::npos);
    EXPECT_NE(what.find("42"), std::string::npos);
    EXPECT_NE(what.find("checksum"), std::string::npos);
    EXPECT_NE(what.find("checksum mismatch"), std::string::npos);
    EXPECT_EQ(error.category(), ErrorCategory::kChecksum);
  }
  // Nothing was quarantined — strict mode reports by throwing.
  EXPECT_EQ(log.quarantined_count(), 0u);
}

TEST(ParseLogTest, TolerantRejectQuarantinesAndContinues) {
  ParseLog log(ParsePolicy::kTolerant);
  log.accept("tle", 3);
  log.reject("tle", ErrorCategory::kNumeric, "bad field", "garbage",
             RecordRef{"catalog.tle", 7});
  log.reject("wdc", ErrorCategory::kRange, "month 13", "DST...",
             RecordRef{"dst.wdc", 2});
  log.repair("wdc", 24);

  ASSERT_EQ(log.quarantined_count(), 2u);
  const QuarantinedRecord& first = log.quarantined()[0];
  EXPECT_EQ(first.stage, "tle");
  EXPECT_EQ(first.source, "catalog.tle");
  EXPECT_EQ(first.line, 7u);
  EXPECT_EQ(first.category, ErrorCategory::kNumeric);
  EXPECT_EQ(first.snippet, "garbage");

  const auto& tle = log.stages().at("tle");
  EXPECT_EQ(tle.accepted, 3u);
  EXPECT_EQ(tle.quarantined_total(), 1u);
  EXPECT_EQ(tle.quarantined[static_cast<std::size_t>(ErrorCategory::kNumeric)], 1u);
  const auto& wdc = log.stages().at("wdc");
  EXPECT_EQ(wdc.repaired, 24u);
  EXPECT_EQ(wdc.quarantined[static_cast<std::size_t>(ErrorCategory::kRange)], 1u);
}

TEST(ParseLogTest, EveryCategoryIsCountedInItsOwnBucket) {
  ParseLog log(ParsePolicy::kTolerant);
  for (std::size_t i = 0; i < kErrorCategoryCount; ++i) {
    log.reject("stage", static_cast<ErrorCategory>(i), "m", "s",
               RecordRef{"f", i + 1});
  }
  const StageCounters& counters = log.stages().at("stage");
  EXPECT_EQ(counters.quarantined_total(), kErrorCategoryCount);
  for (std::size_t i = 0; i < kErrorCategoryCount; ++i) {
    EXPECT_EQ(counters.quarantined[i], 1u) << "category " << i;
  }
}

TEST(ParseLogTest, MergeIsInOrderConcatenation) {
  // Simulate the parallel-chunk pattern: per-chunk logs merged in chunk
  // index order must equal the serial log.
  ParseLog serial(ParsePolicy::kTolerant);
  serial.accept("tle", 2);
  serial.reject("tle", ErrorCategory::kSyntax, "a", "", RecordRef{"f", 1});
  serial.reject("tle", ErrorCategory::kChecksum, "b", "", RecordRef{"f", 5});

  ParseLog chunk0(ParsePolicy::kTolerant);
  chunk0.accept("tle", 1);
  chunk0.reject("tle", ErrorCategory::kSyntax, "a", "", RecordRef{"f", 1});
  ParseLog chunk1(ParsePolicy::kTolerant);
  chunk1.accept("tle", 1);
  chunk1.reject("tle", ErrorCategory::kChecksum, "b", "", RecordRef{"f", 5});

  ParseLog merged(ParsePolicy::kTolerant);
  merged.merge(std::move(chunk0));
  merged.merge(std::move(chunk1));

  EXPECT_TRUE(merged.stages().at("tle") == serial.stages().at("tle"));
  ASSERT_EQ(merged.quarantined_count(), serial.quarantined_count());
  for (std::size_t i = 0; i < merged.quarantined().size(); ++i) {
    EXPECT_EQ(merged.quarantined()[i].line, serial.quarantined()[i].line);
    EXPECT_EQ(merged.quarantined()[i].message, serial.quarantined()[i].message);
  }
}

// ---- DataQualityReport ------------------------------------------------------

ParseLog sample_log() {
  ParseLog log(ParsePolicy::kTolerant);
  log.accept("tle", 10);
  log.repair("wdc", 24);
  log.accept("wdc", 5);
  log.reject("tle", ErrorCategory::kChecksum, "checksum \"mismatch\"",
             "1 25544U junk", RecordRef{"catalog.tle", 3});
  return log;
}

TEST(DataQualityReportTest, TotalsAggregateAcrossStages) {
  const DataQualityReport report = sample_log().report();
  EXPECT_EQ(report.total_accepted(), 15u);
  EXPECT_EQ(report.total_repaired(), 24u);
  EXPECT_EQ(report.total_quarantined(), 1u);
}

TEST(DataQualityReportTest, QuarantineRowsHaveHeaderAndOneRowPerRecord) {
  const DataQualityReport report = sample_log().report();
  const auto rows = report.quarantine_rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], "stage");
  EXPECT_EQ(rows[1][0], "tle");
  EXPECT_EQ(rows[1][1], "catalog.tle");
  EXPECT_EQ(rows[1][2], "3");
  EXPECT_EQ(rows[1][3], "checksum");
}

TEST(DataQualityReportTest, SummaryRowsCoverEveryStageAndCategory) {
  const DataQualityReport report = sample_log().report();
  const auto rows = report.summary_rows();
  ASSERT_EQ(rows.size(), 3u);  // header + tle + wdc
  EXPECT_EQ(rows[0].size(), 4u + kErrorCategoryCount);
  EXPECT_EQ(rows[1][0], "tle");
  EXPECT_EQ(rows[1][1], "10");
  EXPECT_EQ(rows[2][0], "wdc");
  EXPECT_EQ(rows[2][2], "24");
}

TEST(DataQualityReportTest, JsonEscapesAndContainsEverything) {
  const std::string json = sample_log().report().to_json();
  const auto doc = serve::parse_json(json);
  ASSERT_TRUE(doc.has_value()) << "to_json emitted invalid JSON:\n" << json;
  ASSERT_NE(doc->find("policy"), nullptr);
  EXPECT_EQ(doc->find("policy")->text, "tolerant");

  const serve::JsonValue* stages = doc->find("stages");
  ASSERT_NE(stages, nullptr);
  ASSERT_NE(stages->find("tle"), nullptr);
  ASSERT_NE(stages->find("wdc"), nullptr);
  EXPECT_EQ(stages->find("tle")->find("accepted")->integer(), 10);
  EXPECT_EQ(stages->find("wdc")->find("repaired")->integer(), 24);
  EXPECT_EQ(stages->find("tle")->find("quarantined")->find("checksum")->integer(),
            1);

  const serve::JsonValue* quarantined = doc->find("quarantined");
  ASSERT_NE(quarantined, nullptr);
  ASSERT_EQ(quarantined->items.size(), 1u);
  const serve::JsonValue& record = quarantined->items[0];
  ASSERT_NE(record.find("message"), nullptr);
  // The embedded quotes survive the escape and decode back verbatim.
  EXPECT_EQ(record.find("message")->text, "checksum \"mismatch\"");
  EXPECT_EQ(record.find("source")->text, "catalog.tle");
  EXPECT_EQ(record.find("line")->integer(), 3);
  EXPECT_EQ(record.find("category")->text, "checksum");
  EXPECT_EQ(record.find("snippet")->text, "1 25544U junk");
}

TEST(DataQualityReportTest, PrintSummarisesCountsAndRecords) {
  std::ostringstream out;
  sample_log().report().print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("policy=tolerant"), std::string::npos);
  EXPECT_NE(text.find("15 accepted"), std::string::npos);
  EXPECT_NE(text.find("24 repaired"), std::string::npos);
  EXPECT_NE(text.find("1 quarantined"), std::string::npos);
  EXPECT_NE(text.find("catalog.tle:3"), std::string::npos);
}

TEST(DiagSnippet, TruncatesAndFlattensWhitespace) {
  EXPECT_EQ(snippet_of("short"), "short");
  EXPECT_EQ(snippet_of("a\nb\tc"), "a b c");
  const std::string long_text(100, 'x');
  const std::string snip = snippet_of(long_text, 10);
  EXPECT_EQ(snip.size(), 13u);  // 10 chars + "..."
  EXPECT_EQ(snip.substr(10), "...");
}

}  // namespace
}  // namespace cosmicdance::diag
