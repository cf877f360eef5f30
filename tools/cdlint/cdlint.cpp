// cdlint — the CosmicDance project-invariant static-analysis pass.
//
//   cdlint [--root DIR] [--baseline FILE] [--threads N] [--json]
//          [--dump-index] [dir...]
//
// Walks `src/`, `tools/`, `bench/` and `tests/` under --root (default: the
// current directory) and runs the two-phase analysis in scan.hpp: per-file
// rules R1-R8 while each file is lexed into a project-index record, then
// the cross-file concurrency/determinism rules R9-R14 over the merged
// index.  Findings print one per line, sorted by (file, line, rule):
//
//   src/foo/bar.cpp:42: [rule-slug] message
//
// With --json, findings are emitted as a JSON object instead; --dump-index
// prints the serialized project index (for debugging and the scan tests)
// and reports no findings.  --threads N fans the file scan over the exec
// pool (0 = all hardware, 1 = serial); output is byte-identical at any
// value.  A baseline file (one `rule|path|normalized-line` entry per line,
// '#' comments) lets legacy findings be grandfathered while new ones fail;
// the committed baseline is empty and tier-1 pass 5 keeps it that way.
//
// Exit status: 0 no findings, 1 findings, 2 usage or I/O error.
#include <charconv>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "rules.hpp"
#include "scan.hpp"

namespace cdlint {
namespace {

struct Options {
  ScanOptions scan;
  std::string baseline;
  bool json = false;
  bool dump_index = false;
};

/// Baseline entries are consumable: each suppresses one matching finding.
using Baseline = std::multiset<std::string>;

Baseline load_baseline(const std::string& path) {
  Baseline baseline;
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cdlint: cannot open baseline file: " << path << "\n";
    std::exit(2);
  }
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    baseline.insert(line.substr(first));
  }
  return baseline;
}

std::string baseline_key(const Finding& finding) {
  return finding.rule + "|" + finding.file + "|" + finding.raw;
}

Options parse_args(int argc, char** argv) {
  Options options;
  options.scan.dirs.clear();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* name) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "cdlint: " << name << " requires a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--root") {
      options.scan.root = value("--root");
    } else if (arg == "--baseline") {
      options.baseline = value("--baseline");
    } else if (arg == "--threads") {
      const std::string text = value("--threads");
      int threads = -1;
      const auto [ptr, ec] = std::from_chars(
          text.data(), text.data() + text.size(), threads);
      if (ec != std::errc() || ptr != text.data() + text.size() ||
          threads < 0) {
        std::cerr << "cdlint: --threads requires a non-negative integer, got '"
                  << text << "'\n";
        std::exit(2);
      }
      options.scan.threads = threads;
    } else if (arg == "--json") {
      options.json = true;
    } else if (arg == "--dump-index") {
      options.dump_index = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: cdlint [--root DIR] [--baseline FILE] "
                   "[--threads N] [--json] [--dump-index] [dir...]\n";
      std::exit(0);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "cdlint: unknown option " << arg << "\n";
      std::exit(2);
    } else {
      options.scan.dirs.push_back(arg);
    }
  }
  if (options.scan.dirs.empty()) {
    options.scan.dirs = {"src", "tools", "bench", "tests"};
  }
  return options;
}

int run(const Options& options) {
  ScanResult result = scan_tree(options.scan);
  if (!result.error.empty()) {
    std::cerr << "cdlint: " << result.error << "\n";
    return 2;
  }

  if (options.dump_index) {
    std::cout << result.index.serialize();
    std::cerr << "cdlint: " << result.files_scanned
              << " files indexed\n";
    return 0;
  }

  Baseline baseline;
  if (!options.baseline.empty()) baseline = load_baseline(options.baseline);
  std::vector<Finding> findings;
  std::size_t baselined = 0;
  for (Finding& finding : result.findings) {
    const auto entry = baseline.find(baseline_key(finding));
    if (entry != baseline.end()) {
      baseline.erase(entry);
      ++baselined;
      continue;
    }
    findings.push_back(std::move(finding));
  }

  if (options.json) {
    std::cout << "{\n  \"findings\": [";
    for (std::size_t i = 0; i < findings.size(); ++i) {
      const Finding& f = findings[i];
      std::cout << (i == 0 ? "\n" : ",\n")
                << "    {\"file\": \"" << cosmicdance::escape_json(f.file)
                << "\", \"line\": " << f.line << ", \"rule\": \""
                << cosmicdance::escape_json(f.rule) << "\", \"message\": \""
                << cosmicdance::escape_json(f.message) << "\"}";
    }
    std::cout << (findings.empty() ? "]" : "\n  ]") << ",\n"
              << "  \"files_scanned\": " << result.files_scanned << ",\n"
              << "  \"baselined\": " << baselined << ",\n"
              << "  \"count\": " << findings.size() << "\n}\n";
  } else {
    for (const Finding& f : findings) {
      std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
                << f.message << "\n";
    }
  }
  std::cerr << "cdlint: " << result.files_scanned << " files, "
            << findings.size() << " finding(s)"
            << (baselined > 0
                    ? ", " + std::to_string(baselined) + " baselined"
                    : std::string())
            << "\n";
  return findings.empty() ? 0 : 1;
}

}  // namespace
}  // namespace cdlint

int main(int argc, char** argv) {
  return cdlint::run(cdlint::parse_args(argc, argv));
}
