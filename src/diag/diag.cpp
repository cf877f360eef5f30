#include "diag/diag.hpp"

#include <algorithm>
#include <cstring>
#include <ostream>

#include "common/json.hpp"

namespace cosmicdance::diag {
namespace {

constexpr std::array<const char*, kErrorCategoryCount> kCategoryNames{
    "syntax", "checksum", "numeric", "range", "structure"};

}  // namespace

const char* to_string(ErrorCategory category) {
  return kCategoryNames[static_cast<std::size_t>(category)];
}

const char* to_string(ParsePolicy policy) {
  return policy == ParsePolicy::kStrict ? "strict" : "tolerant";
}

ParsePolicy parse_policy_from_string(const std::string& text) {
  if (text == "strict") return ParsePolicy::kStrict;
  if (text == "tolerant") return ParsePolicy::kTolerant;
  throw ParseError("unknown parse policy (want strict|tolerant): '" + text + "'");
}

std::size_t StageCounters::quarantined_total() const noexcept {
  std::size_t total = 0;
  for (const std::size_t n : quarantined) total += n;
  return total;
}

void StageCounters::merge(const StageCounters& other) noexcept {
  accepted += other.accepted;
  repaired += other.repaired;
  for (std::size_t i = 0; i < quarantined.size(); ++i) {
    quarantined[i] += other.quarantined[i];
  }
}

bool operator==(const StageCounters& a, const StageCounters& b) noexcept {
  return a.accepted == b.accepted && a.repaired == b.repaired &&
         a.quarantined == b.quarantined;
}

void ParseLog::accept(const std::string& stage, std::size_t count) {
  stages_[stage].accepted += count;
}

void ParseLog::repair(const std::string& stage, std::size_t count) {
  stages_[stage].repaired += count;
}

void ParseLog::reject(const std::string& stage, ErrorCategory category,
                      const std::string& raw_message, const std::string& snippet,
                      const RecordRef& where) {
  // Messages usually arrive as ParseError::what(), which already carries
  // the class prefix; drop it so located/rethrown messages don't stutter
  // ("parse error: file:3: [...] parse error: ...").
  constexpr const char* kPrefix = "parse error: ";
  const std::string message = raw_message.rfind(kPrefix, 0) == 0
                                  ? raw_message.substr(std::strlen(kPrefix))
                                  : raw_message;
  if (!tolerant()) {
    throw ParseError(where.source + ":" + std::to_string(where.line) + ": [" +
                         stage + "/" + to_string(category) + "] " + message +
                         (snippet.empty() ? std::string()
                                          : " near '" + snippet_of(snippet) + "'"),
                     category);
  }
  stages_[stage].quarantined[static_cast<std::size_t>(category)] += 1;
  quarantined_.push_back(QuarantinedRecord{stage, where.source, where.line,
                                           category, message,
                                           snippet_of(snippet)});
}

void ParseLog::merge(ParseLog&& other) {
  for (const auto& [stage, counters] : other.stages_) {
    stages_[stage].merge(counters);
  }
  quarantined_.insert(quarantined_.end(),
                      std::make_move_iterator(other.quarantined_.begin()),
                      std::make_move_iterator(other.quarantined_.end()));
  other.stages_.clear();
  other.quarantined_.clear();
}

DataQualityReport ParseLog::report() const {
  return DataQualityReport{policy_, stages_, quarantined_};
}

void DataQualityReport::merge(const DataQualityReport& other) {
  for (const auto& [stage, counters] : other.stages) {
    stages[stage].merge(counters);
  }
  quarantined.insert(quarantined.end(), other.quarantined.begin(),
                     other.quarantined.end());
}

std::size_t DataQualityReport::total_accepted() const noexcept {
  std::size_t total = 0;
  for (const auto& [stage, counters] : stages) total += counters.accepted;
  return total;
}

std::size_t DataQualityReport::total_repaired() const noexcept {
  std::size_t total = 0;
  for (const auto& [stage, counters] : stages) total += counters.repaired;
  return total;
}

std::size_t DataQualityReport::total_quarantined() const noexcept {
  std::size_t total = 0;
  for (const auto& [stage, counters] : stages) {
    total += counters.quarantined_total();
  }
  return total;
}

std::vector<std::vector<std::string>> DataQualityReport::quarantine_rows() const {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(quarantined.size() + 1);
  rows.push_back({"stage", "source", "line", "category", "message", "snippet"});
  for (const QuarantinedRecord& record : quarantined) {
    rows.push_back({record.stage, record.source, std::to_string(record.line),
                    to_string(record.category), record.message, record.snippet});
  }
  return rows;
}

std::vector<std::vector<std::string>> DataQualityReport::summary_rows() const {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(stages.size() + 1);
  std::vector<std::string> header{"stage", "accepted", "repaired", "quarantined"};
  for (const char* name : kCategoryNames) header.emplace_back(name);
  rows.push_back(std::move(header));
  for (const auto& [stage, counters] : stages) {
    std::vector<std::string> row{stage, std::to_string(counters.accepted),
                                 std::to_string(counters.repaired),
                                 std::to_string(counters.quarantined_total())};
    for (const std::size_t n : counters.quarantined) {
      row.push_back(std::to_string(n));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string DataQualityReport::to_json() const {
  std::string out = "{\n  \"policy\": \"";
  out += to_string(policy);
  out += "\",\n  \"stages\": {";
  bool first_stage = true;
  for (const auto& [stage, counters] : stages) {
    out += first_stage ? "\n" : ",\n";
    first_stage = false;
    out += "    \"" + escape_json(stage) + "\": {\"accepted\": " +
           std::to_string(counters.accepted) +
           ", \"repaired\": " + std::to_string(counters.repaired) +
           ", \"quarantined\": {";
    // Sequential appends: GCC 12's -Wrestrict misfires on the equivalent
    // "lit" + std::string(...) + ... chain here (PR 105651) under -O2.
    for (std::size_t i = 0; i < kErrorCategoryCount; ++i) {
      if (i > 0) out += ", ";
      out += '"';
      out += kCategoryNames[i];
      out += "\": ";
      out += std::to_string(counters.quarantined[i]);
    }
    out += "}}";
  }
  out += "\n  },\n  \"quarantined\": [";
  bool first_record = true;
  for (const QuarantinedRecord& record : quarantined) {
    out += first_record ? "\n" : ",\n";
    first_record = false;
    out += "    {\"stage\": \"" + escape_json(record.stage) + "\", \"source\": \"" +
           escape_json(record.source) +
           "\", \"line\": " + std::to_string(record.line) + ", \"category\": \"" +
           to_string(record.category) + "\", \"message\": \"" +
           escape_json(record.message) + "\", \"snippet\": \"" +
           escape_json(record.snippet) + "\"}";
  }
  out += "\n  ]\n}\n";
  return out;
}

void DataQualityReport::print(std::ostream& out) const {
  out << "data quality (policy=" << to_string(policy)
      << "): " << total_accepted() << " accepted, " << total_repaired()
      << " repaired, " << total_quarantined() << " quarantined\n";
  for (const auto& [stage, counters] : stages) {
    out << "  " << stage << ": " << counters.accepted << " accepted, "
        << counters.repaired << " repaired, " << counters.quarantined_total()
        << " quarantined";
    if (counters.quarantined_total() > 0) {
      out << " (";
      bool first = true;
      for (std::size_t i = 0; i < kErrorCategoryCount; ++i) {
        if (counters.quarantined[i] == 0) continue;
        if (!first) out << ", ";
        first = false;
        out << kCategoryNames[i] << "=" << counters.quarantined[i];
      }
      out << ")";
    }
    out << "\n";
  }
  constexpr std::size_t kMaxShown = 10;
  const std::size_t shown = std::min(quarantined.size(), kMaxShown);
  for (std::size_t i = 0; i < shown; ++i) {
    const QuarantinedRecord& record = quarantined[i];
    out << "  quarantined " << record.source << ":" << record.line << " ["
        << record.stage << "/" << to_string(record.category) << "] "
        << record.message << "\n";
  }
  if (quarantined.size() > shown) {
    out << "  ... and " << (quarantined.size() - shown)
        << " more quarantined records (write --quality-report for the full list)\n";
  }
}

std::string snippet_of(const std::string& text, std::size_t max_length) {
  std::string out;
  out.reserve(std::min(text.size(), max_length + 3));
  for (const char c : text) {
    if (out.size() >= max_length) {
      out += "...";
      break;
    }
    out.push_back(c == '\n' || c == '\r' || c == '\t' ? ' ' : c);
  }
  return out;
}

}  // namespace cosmicdance::diag
