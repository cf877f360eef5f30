// Differential suite for append-aware incremental ingestion (DESIGN.md §14).
//
// The delta-snapshot contract extends the PR 5 cache contract from
// "bit-identical or rebuilt" to "bit-identical, incrementally extended, or
// rebuilt": when the inputs grow by appended records over an unchanged
// prefix, a warm run must parse only the tails (counters `ingest.delta_hit`
// and `ingest.tail_bytes`), persist the new artefacts as a chain-hashed
// delta layer (compacted back into a single base when the chain grows
// long), and still produce output bit-identical to a from-scratch rebuild —
// same Dst values, catalog text, quarantine counters and first-error order
// — at any thread count under either parse policy.  Every way the fast
// path could be fooled is driven here: stale bases, shrunk inputs, prefix
// edits masquerading as appends, out-of-order / missing / spliced /
// cross-policy delta layers, unterminated prefixes, dangling pairing
// state at the boundary, and a randomized append/edit/compact fuzz loop.
// Torn *trailing* layers are the one recoverable shape (a crashed append
// leaves a pure prefix of valid bytes): they truncate to the valid prefix
// (`snapshot.delta_truncated`) instead of rejecting, and the next run
// rewrites a clean base — byte-surgery coverage below.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "diag/diag.hpp"
#include "io/file.hpp"
#include "io/snapshot.hpp"
#include "obs/obs.hpp"
#include "spaceweather/dst_index.hpp"
#include "spaceweather/wdc.hpp"
#include "timeutil/datetime.hpp"
#include "tle/catalog.hpp"
#include "tle/tle.hpp"

namespace cosmicdance {
namespace {

using diag::ParsePolicy;

// ---- corpus builders --------------------------------------------------------

tle::Tle make_tle(int catalog_number, double epoch_offset_days) {
  tle::Tle record;
  record.catalog_number = catalog_number;
  record.international_designator = "20001A";
  record.epoch_jd =
      timeutil::to_julian(timeutil::make_datetime(2024, 5, 1)) + epoch_offset_days;
  record.bstar = 1.4e-4;
  record.inclination_deg = 53.05;
  record.raan_deg = 120.5;
  record.eccentricity = 0.0002;
  record.arg_perigee_deg = 90.0;
  record.mean_anomaly_deg = 45.0;
  record.mean_motion_revday = 15.05;
  record.element_set_number = 999;
  record.rev_number = 12345;
  return record;
}

std::string tle_record_text(int catalog_number, double epoch_offset_days) {
  const tle::TleLines lines =
      tle::format_tle(make_tle(catalog_number, epoch_offset_days));
  return lines.line1 + "\n" + lines.line2 + "\n";
}

/// One WDC day record (25 lines would be 25 days): 24 integral hourly
/// values derived deterministically from the day's hour index.
std::string wdc_day_text(timeutil::HourIndex day_start) {
  std::vector<double> values;
  values.reserve(24);
  for (int h = 0; h < 24; ++h) {
    values.push_back(-10.0 - static_cast<double>((day_start + h) % 300));
  }
  return spaceweather::to_wdc(
      spaceweather::DstIndex(day_start, std::move(values)));
}

// ---- harness ----------------------------------------------------------------

/// A growable input pair with its own cache dir.  The append helpers keep
/// enough generator state (next day, next epoch offset) that successive
/// appends always extend — never duplicate — the existing corpus.
struct Fixture {
  std::string dir;
  std::string dst_path;
  std::string tle_path;
  std::string cache_dir;
  timeutil::HourIndex next_day = 0;
  double next_epoch_offset = 50.0;

  [[nodiscard]] std::string snapshot_path() const {
    return io::snapshot_cache_path(cache_dir, dst_path, tle_path);
  }

  void append_tle_records(int count) {
    std::string text;
    for (int i = 0; i < count; ++i) {
      text += tle_record_text(10001 + (i % 4), next_epoch_offset);
      next_epoch_offset += 0.125;
    }
    io::append_file(tle_path, text);
  }

  /// Append one record whose line-1 checksum digit is wrong: a tolerant
  /// parse quarantines it, a strict parse throws on it.
  void append_corrupt_tle_record() {
    std::string text = tle_record_text(10001, next_epoch_offset);
    next_epoch_offset += 0.125;
    text[68] = text[68] == '0' ? '1' : '0';  // line 1 checksum column
    io::append_file(tle_path, text);
  }

  /// Append a lone TLE line 2: a structural reject in both paths.
  void append_orphan_line2() {
    const std::string record = tle_record_text(10001, next_epoch_offset);
    next_epoch_offset += 0.125;
    io::append_file(tle_path, record.substr(record.find("\n2 ") + 1));
  }

  void append_wdc_days(int count) {
    std::string text;
    for (int i = 0; i < count; ++i) {
      text += wdc_day_text(next_day);
      next_day += 24;
    }
    io::append_file(dst_path, text);
  }

  /// Leave a one-day hole before the next appended day: tolerant runs
  /// interpolate 24 hours across it (strict runs throw).
  void skip_wdc_day() { next_day += 24; }
};

Fixture make_fixture(const std::string& tag, int tle_records, int wdc_days) {
  Fixture f;
  f.dir = ::testing::TempDir() + "cddelta_" + tag;
  std::filesystem::remove_all(f.dir);
  std::filesystem::create_directories(f.dir);
  f.dst_path = f.dir + "/dst.wdc";
  f.tle_path = f.dir + "/catalog.tle";
  f.cache_dir = f.dir + "/cache";
  f.next_day = timeutil::hour_index_from_datetime(timeutil::make_datetime(2024, 5, 1));
  io::write_file(f.dst_path, "");
  io::write_file(f.tle_path, "");
  f.append_wdc_days(wdc_days);
  std::string tle_text;
  for (int i = 0; i < tle_records; ++i) {
    tle_text += tle_record_text(10001 + (i % 4), 2.0 * i);
  }
  io::append_file(f.tle_path, tle_text);
  return f;
}

/// Everything the ingestion layer feeds downstream, in comparable form —
/// equality is bit-exactness (see snapshot_test.cpp).
struct RunOutput {
  std::string catalog_text;
  timeutil::HourIndex dst_start = 0;
  std::vector<double> dst_values;
  std::string quality_json;
};

void expect_identical(const RunOutput& a, const RunOutput& b) {
  EXPECT_EQ(a.catalog_text, b.catalog_text);
  EXPECT_EQ(a.dst_start, b.dst_start);
  EXPECT_EQ(a.dst_values, b.dst_values);
  EXPECT_EQ(a.quality_json, b.quality_json);
}

RunOutput run_pipeline(const Fixture& f, ParsePolicy policy, int threads,
                       bool use_cache, obs::Metrics* metrics = nullptr) {
  core::PipelineConfig config;
  config.parse_policy = policy;
  config.num_threads = threads;
  config.metrics = metrics;
  if (use_cache) config.cache_dir = f.cache_dir;
  const core::CosmicDance pipeline =
      core::CosmicDance::from_files(f.dst_path, f.tle_path, config);
  RunOutput out;
  out.catalog_text = pipeline.catalog().to_text();
  out.dst_start = pipeline.dst().start_hour();
  out.dst_values.assign(pipeline.dst().values().begin(),
                        pipeline.dst().values().end());
  out.quality_json = pipeline.quality_report().to_json();
  return out;
}

std::uint64_t counter(const obs::Metrics& metrics, const std::string& name) {
  const obs::MetricsReport report = metrics.snapshot();
  const auto it = report.counters.find(name);
  return it != report.counters.end() ? it->second : 0;
}

std::uint64_t read_u64_le(const std::string& bytes, std::size_t offset) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(
             bytes[offset + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  return v;
}

// Header sizes (the format doc in snapshot.hpp).
constexpr std::size_t kBaseHeaderBytes = 44;
constexpr std::size_t kLayerHeaderBytes = 40;

/// Split a snapshot file into [base, layer 1, layer 2, ...] segments,
/// each header + payload, using the payload-size fields.
std::vector<std::string> split_segments(const std::string& bytes) {
  std::vector<std::string> segments;
  std::size_t pos = 0;
  std::size_t header = kBaseHeaderBytes;
  while (pos + header <= bytes.size()) {
    const std::size_t length =
        header + static_cast<std::size_t>(read_u64_le(bytes, pos + 24));
    segments.push_back(bytes.substr(pos, length));
    pos += length;
    header = kLayerHeaderBytes;
  }
  return segments;
}

/// Drive one mutation of the snapshot file and prove the next run rejects
/// it, matches an uncached parse bit for bit, and rewrites a fresh base.
void expect_reject_and_fallback(const Fixture& f, ParsePolicy policy,
                                const std::string& mutated_bytes) {
  io::write_file(f.snapshot_path(), mutated_bytes);
  obs::Metrics rejected_run;
  const RunOutput fallback =
      run_pipeline(f, policy, 1, /*use_cache=*/true, &rejected_run);
  EXPECT_EQ(counter(rejected_run, "snapshot.rejected"), 1u);
  EXPECT_EQ(counter(rejected_run, "ingest.cache_hit"), 0u);
  EXPECT_EQ(counter(rejected_run, "ingest.delta_hit"), 0u);
  EXPECT_EQ(counter(rejected_run, "snapshot.written"), 1u);
  expect_identical(fallback, run_pipeline(f, policy, 1, /*use_cache=*/false));
}

// ---- the delta fast path ----------------------------------------------------

TEST(DeltaSnapshotTest, AppendTakesTheDeltaPathBitIdenticallyEverywhere) {
  // The acceptance-criteria matrix: both parse policies at threads 1/4/8,
  // with both inputs growing.  Every cell must parse only the tail and
  // match a from-scratch rebuild exactly.
  for (const ParsePolicy policy : {ParsePolicy::kStrict, ParsePolicy::kTolerant}) {
    for (const int threads : {1, 4, 8}) {
      Fixture f = make_fixture(
          std::string("matrix_") +
              (policy == ParsePolicy::kStrict ? "s" : "t") +
              std::to_string(threads),
          8, 5);
      obs::Metrics cold;
      run_pipeline(f, policy, threads, /*use_cache=*/true, &cold);
      EXPECT_EQ(counter(cold, "snapshot.written"), 1u);

      const std::size_t dst_before = std::filesystem::file_size(f.dst_path);
      const std::size_t tle_before = std::filesystem::file_size(f.tle_path);
      f.append_tle_records(3);
      f.append_wdc_days(2);
      const std::size_t appended =
          (std::filesystem::file_size(f.dst_path) - dst_before) +
          (std::filesystem::file_size(f.tle_path) - tle_before);

      obs::Metrics warm;
      const RunOutput incremental =
          run_pipeline(f, policy, threads, /*use_cache=*/true, &warm);
      EXPECT_EQ(counter(warm, "ingest.delta_hit"), 1u);
      EXPECT_EQ(counter(warm, "ingest.tail_bytes"), appended);
      EXPECT_EQ(counter(warm, "ingest.cache_hit"), 0u);
      EXPECT_EQ(counter(warm, "snapshot.rejected"), 0u);
      EXPECT_EQ(counter(warm, "snapshot.loaded"), 1u);
      EXPECT_EQ(counter(warm, "snapshot.delta_written"), 1u);
      EXPECT_EQ(counter(warm, "tle.records_parsed"), 3u)
          << "the delta path must parse only the appended records";
      EXPECT_EQ(counter(warm, "ingest.dst_hours"), 48u)
          << "the delta path must parse only the appended days";

      const RunOutput rebuilt =
          run_pipeline(f, policy, threads, /*use_cache=*/false);
      expect_identical(incremental, rebuilt);

      // The next run over unchanged inputs is a plain exact hit on the
      // base-plus-delta chain.
      obs::Metrics exact;
      const RunOutput warm2 =
          run_pipeline(f, policy, threads, /*use_cache=*/true, &exact);
      EXPECT_EQ(counter(exact, "ingest.cache_hit"), 1u);
      EXPECT_EQ(counter(exact, "ingest.delta_hit"), 0u);
      expect_identical(warm2, rebuilt);
    }
  }
}

TEST(DeltaSnapshotTest, SingleFileGrowthAlsoTakesTheDeltaPath) {
  Fixture f = make_fixture("one_file", 6, 4);
  run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true);

  f.append_wdc_days(1);  // only the Dst input grows
  obs::Metrics dst_only;
  const RunOutput after_dst =
      run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true, &dst_only);
  EXPECT_EQ(counter(dst_only, "ingest.delta_hit"), 1u);
  EXPECT_EQ(counter(dst_only, "tle.records_parsed"), 0u);
  expect_identical(after_dst,
                   run_pipeline(f, ParsePolicy::kTolerant, 1, false));

  f.append_tle_records(2);  // now only the TLE input grows
  obs::Metrics tle_only;
  const RunOutput after_tle =
      run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true, &tle_only);
  EXPECT_EQ(counter(tle_only, "ingest.delta_hit"), 1u);
  EXPECT_EQ(counter(tle_only, "ingest.dst_hours"), 0u);
  expect_identical(after_tle,
                   run_pipeline(f, ParsePolicy::kTolerant, 1, false));
}

TEST(DeltaSnapshotTest, QuarantineAndRepairExtendAcrossTheBoundary) {
  // Tail records that quarantine, a structural orphan, and a Dst gap whose
  // interpolation anchors on the *prefix's* last committed value: the
  // quality report — counters, line numbers, snippet order — must equal
  // the full rebuild's exactly.
  Fixture f = make_fixture("quarantine", 6, 4);
  run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true);

  f.append_corrupt_tle_record();
  f.append_orphan_line2();
  f.append_tle_records(1);
  f.skip_wdc_day();  // interpolated across the snapshot boundary
  f.append_wdc_days(1);

  obs::Metrics warm;
  const RunOutput incremental =
      run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true, &warm);
  EXPECT_EQ(counter(warm, "ingest.delta_hit"), 1u);
  const RunOutput rebuilt =
      run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/false);
  expect_identical(incremental, rebuilt);
  EXPECT_NE(incremental.quality_json.find("quarantined"), std::string::npos);

  // And the quarantine survives an exact hit on the delta chain.
  const RunOutput warm2 =
      run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true);
  expect_identical(warm2, rebuilt);
}

TEST(DeltaSnapshotTest, StrictTailFailureThrowsIdenticallyToFullReparse) {
  // Strict policy, malformed record in the tail: the delta path must throw
  // the same first error — same message, same absolute line number — as a
  // full reparse of the grown file would.
  Fixture f = make_fixture("strict_throw", 6, 4);
  run_pipeline(f, ParsePolicy::kStrict, 1, /*use_cache=*/true);
  f.append_tle_records(1);
  f.append_corrupt_tle_record();

  std::string cached_error;
  std::string uncached_error;
  try {
    run_pipeline(f, ParsePolicy::kStrict, 1, /*use_cache=*/true);
  } catch (const ParseError& error) {
    cached_error = error.what();
  }
  try {
    run_pipeline(f, ParsePolicy::kStrict, 1, /*use_cache=*/false);
  } catch (const ParseError& error) {
    uncached_error = error.what();
  }
  EXPECT_FALSE(cached_error.empty());
  EXPECT_EQ(cached_error, uncached_error);
}

// ---- layer stacking and compaction ------------------------------------------

TEST(DeltaSnapshotTest, LayersStackThenCompactBackToASingleBase) {
  Fixture f = make_fixture("compaction", 4, 3);
  run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true);

  for (std::uint32_t round = 1; round <= io::kMaxSnapshotDeltaLayers + 2;
       ++round) {
    f.append_tle_records(1);
    f.append_wdc_days(1);
    obs::Metrics warm;
    const RunOutput incremental =
        run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true, &warm);
    EXPECT_EQ(counter(warm, "ingest.delta_hit"), 1u) << "round " << round;
    expect_identical(incremental,
                     run_pipeline(f, ParsePolicy::kTolerant, 1, false));
    const std::string bytes = io::read_file(f.snapshot_path());
    const std::optional<io::SnapshotData> decoded =
        io::decode_snapshot(bytes, ParsePolicy::kTolerant);
    ASSERT_TRUE(decoded.has_value()) << "round " << round;
    if (round <= io::kMaxSnapshotDeltaLayers) {
      EXPECT_EQ(counter(warm, "snapshot.delta_written"), 1u) << "round " << round;
      EXPECT_EQ(counter(warm, "snapshot.compacted"), 0u) << "round " << round;
      EXPECT_EQ(decoded->delta_layers, round);
      EXPECT_EQ(split_segments(bytes).size(), 1u + round);
    } else if (round == io::kMaxSnapshotDeltaLayers + 1) {
      // The chain is full: this append compacts everything to one base.
      EXPECT_EQ(counter(warm, "snapshot.compacted"), 1u);
      EXPECT_EQ(counter(warm, "snapshot.delta_written"), 0u);
      EXPECT_EQ(counter(warm, "snapshot.written"), 1u);
      EXPECT_EQ(decoded->delta_layers, 0u);
      EXPECT_EQ(split_segments(bytes).size(), 1u);
    } else {
      // And the compacted base accepts new layers again.
      EXPECT_EQ(counter(warm, "snapshot.delta_written"), 1u);
      EXPECT_EQ(decoded->delta_layers, 1u);
    }
  }
  // The final exact hit replays base + chain bit-identically.
  obs::Metrics exact;
  const RunOutput warm =
      run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true, &exact);
  EXPECT_EQ(counter(exact, "ingest.cache_hit"), 1u);
  expect_identical(warm, run_pipeline(f, ParsePolicy::kTolerant, 1, false));
}

// ---- failure matrix: stale bases and forged appends -------------------------

TEST(DeltaSnapshotTest, PrefixEditMasqueradingAsAppendReparses) {
  // The file grows AND a prefix byte changes: lengths alone say "append",
  // only the prefix hash catches the edit.
  Fixture f = make_fixture("masquerade", 6, 4);
  run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true);

  std::string text = io::read_file(f.tle_path);
  const std::size_t designator = text.find("20001A");
  ASSERT_NE(designator, std::string::npos);
  text[designator + 5] = 'B';
  io::write_file(f.tle_path, text);
  f.append_tle_records(2);

  obs::Metrics warm;
  const RunOutput fallback =
      run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true, &warm);
  EXPECT_EQ(counter(warm, "ingest.delta_hit"), 0u);
  EXPECT_EQ(counter(warm, "snapshot.rejected"), 1u);
  EXPECT_EQ(counter(warm, "snapshot.written"), 1u);
  expect_identical(fallback, run_pipeline(f, ParsePolicy::kTolerant, 1, false));
}

TEST(DeltaSnapshotTest, UnterminatedPrefixForcesFullReparse) {
  // The prefix's last line has no trailing newline, so appended bytes
  // could rewrite that line's meaning: growth must reparse from scratch.
  Fixture f = make_fixture("unterminated", 6, 4);
  std::string text = io::read_file(f.tle_path);
  ASSERT_EQ(text.back(), '\n');
  text.pop_back();
  io::write_file(f.tle_path, text);
  run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true);

  io::append_file(f.tle_path, "\n");
  f.append_tle_records(1);
  obs::Metrics warm;
  const RunOutput fallback =
      run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true, &warm);
  EXPECT_EQ(counter(warm, "ingest.delta_hit"), 0u);
  EXPECT_EQ(counter(warm, "snapshot.rejected"), 1u);
  expect_identical(fallback, run_pipeline(f, ParsePolicy::kTolerant, 1, false));
}

TEST(DeltaSnapshotTest, DanglingLine1BoundaryForcesFullReparse) {
  // The prefix ends with a lone TLE line 1 (quarantined as structural when
  // parsed alone).  Appending its line 2 would retroactively pair it, so
  // the classifier must refuse the delta path — the full reparse commits
  // the completed record, which the quarantined snapshot never could.
  Fixture f = make_fixture("dangling", 6, 4);
  const std::string record = tle_record_text(10001, 77.0);
  const std::string line1 = record.substr(0, record.find('\n') + 1);
  io::append_file(f.tle_path, line1);
  obs::Metrics cold;
  run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true, &cold);
  EXPECT_EQ(counter(cold, "tle.structural_rejects"), 1u);

  io::append_file(f.tle_path, record.substr(record.find('\n') + 1));
  obs::Metrics warm;
  const RunOutput fallback =
      run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true, &warm);
  EXPECT_EQ(counter(warm, "ingest.delta_hit"), 0u);
  EXPECT_EQ(counter(warm, "snapshot.rejected"), 1u);
  EXPECT_EQ(counter(warm, "tle.structural_rejects"), 0u)
      << "the full reparse pairs the completed record";
  expect_identical(fallback, run_pipeline(f, ParsePolicy::kTolerant, 1, false));
}

// ---- failure matrix: broken delta chains ------------------------------------

TEST(DeltaSnapshotTest, BrokenDeltaChainsRejectTheWholeSnapshot) {
  // Build base + two delta layers, then splice the file every way a chain
  // can break.  Each mutation must reject, fall back bit-identically, and
  // rewrite a fresh base.
  Fixture f = make_fixture("chains", 6, 4);
  run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true);
  f.append_tle_records(1);
  run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true);
  f.append_tle_records(1);
  run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true);

  const std::string bytes = io::read_file(f.snapshot_path());
  const std::vector<std::string> segments = split_segments(bytes);
  ASSERT_EQ(segments.size(), 3u);
  const std::string& base = segments[0];
  const std::string& layer1 = segments[1];
  const std::string& layer2 = segments[2];

  {
    SCOPED_TRACE("out-of-order layers");
    expect_reject_and_fallback(f, ParsePolicy::kTolerant,
                               base + layer2 + layer1);
  }
  {
    SCOPED_TRACE("missing middle layer");
    expect_reject_and_fallback(f, ParsePolicy::kTolerant, base + layer2);
  }
  {
    SCOPED_TRACE("duplicated layer");
    expect_reject_and_fallback(f, ParsePolicy::kTolerant,
                               base + layer1 + layer1);
  }
  {
    SCOPED_TRACE("flipped byte inside a layer payload");
    std::string corrupted = base + layer1 + layer2;
    corrupted[base.size() + kLayerHeaderBytes + layer1.size() / 3] ^= 0x20;
    expect_reject_and_fallback(f, ParsePolicy::kTolerant, corrupted);
  }
}

// ---- torn trailing layers: truncate, never reject ---------------------------

TEST(DeltaSnapshotTest, TornTrailingLayerTruncatesToTheValidPrefix) {
  // Decode-level contract: every way a crashed append can tear the *final*
  // layer — mid-header, mid-payload, or a checksum-failing complete payload —
  // recovers base + layer 1 with tail_truncated set, while the same
  // corruption anywhere earlier in the chain still rejects the whole file.
  Fixture f = make_fixture("torn_decode", 6, 4);
  run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true);
  f.append_tle_records(1);
  run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true);
  f.append_tle_records(1);
  run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true);

  const std::string bytes = io::read_file(f.snapshot_path());
  const std::vector<std::string> segments = split_segments(bytes);
  ASSERT_EQ(segments.size(), 3u);
  const std::string full = segments[0] + segments[1] + segments[2];
  const std::size_t prefix = segments[0].size() + segments[1].size();

  const auto expect_truncated = [&](const std::string& torn) {
    const std::optional<io::SnapshotData> decoded =
        io::decode_snapshot(torn, ParsePolicy::kTolerant);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_TRUE(decoded->tail_truncated);
    EXPECT_EQ(decoded->delta_layers, 1u);
    // The recovered prefix must equal the pre-append snapshot exactly.
    const std::optional<io::SnapshotData> clean =
        io::decode_snapshot(full.substr(0, prefix), ParsePolicy::kTolerant);
    ASSERT_TRUE(clean.has_value());
    EXPECT_FALSE(clean->tail_truncated);
    EXPECT_EQ(decoded->chain_hash, clean->chain_hash);
    EXPECT_EQ(decoded->state.tle_len, clean->state.tle_len);
    EXPECT_EQ(decoded->catalog.to_text(), clean->catalog.to_text());
  };

  {
    SCOPED_TRACE("torn mid-header");
    expect_truncated(full.substr(0, prefix + 25));
  }
  {
    SCOPED_TRACE("torn mid-payload");
    expect_truncated(full.substr(0, full.size() - 5));
  }
  {
    SCOPED_TRACE("final layer fails its checksum");
    std::string torn = full;
    torn[full.size() - 3] ^= 0x20;
    expect_truncated(torn);
  }
  {
    SCOPED_TRACE("the same checksum failure mid-chain still rejects");
    std::string corrupted = full;
    corrupted[segments[0].size() + kLayerHeaderBytes + 3] ^= 0x20;
    EXPECT_FALSE(
        io::decode_snapshot(corrupted, ParsePolicy::kTolerant).has_value());
  }
  {
    SCOPED_TRACE("a torn base still rejects");
    EXPECT_FALSE(io::decode_snapshot(full.substr(0, segments[0].size() - 5),
                                     ParsePolicy::kTolerant)
                     .has_value());
  }
}

TEST(DeltaSnapshotTest, TornTrailingLayerRecoversOnTheDeltaPath) {
  // End to end: the inputs hold two appends but the snapshot's second
  // layer is torn.  The warm run must load the truncated prefix
  // (`snapshot.delta_truncated`, no rejection), tail-parse the records the
  // torn layer covered, match a from-scratch rebuild bit for bit, and
  // rewrite a clean *base* — appending another layer after torn bytes
  // would strand it beyond the tear for every future load.
  Fixture f = make_fixture("torn_e2e", 6, 4);
  run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true);
  f.append_tle_records(1);
  run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true);
  f.append_tle_records(1);
  run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true);

  const std::string bytes = io::read_file(f.snapshot_path());
  const std::vector<std::string> segments = split_segments(bytes);
  ASSERT_EQ(segments.size(), 3u);
  io::write_file(f.snapshot_path(),
                 bytes.substr(0, bytes.size() - segments[2].size() + 25));

  obs::Metrics warm;
  const RunOutput recovered =
      run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true, &warm);
  EXPECT_EQ(counter(warm, "snapshot.delta_truncated"), 1u);
  EXPECT_EQ(counter(warm, "snapshot.rejected"), 0u);
  EXPECT_EQ(counter(warm, "ingest.delta_hit"), 1u);
  EXPECT_EQ(counter(warm, "snapshot.written"), 1u)
      << "recovery must rewrite a clean base";
  EXPECT_EQ(counter(warm, "snapshot.delta_written"), 0u)
      << "never append a layer after torn bytes";
  EXPECT_EQ(counter(warm, "snapshot.compacted"), 0u);
  expect_identical(recovered,
                   run_pipeline(f, ParsePolicy::kTolerant, 1, false));

  // The rewritten base is whole again: the next run is an exact hit with
  // no truncation, and it decodes with a clean tail.
  obs::Metrics exact;
  run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true, &exact);
  EXPECT_EQ(counter(exact, "ingest.cache_hit"), 1u);
  EXPECT_EQ(counter(exact, "snapshot.delta_truncated"), 0u);
}

TEST(DeltaSnapshotTest, TornTailWithUnchangedInputsRewritesOnTheExactPath) {
  // A crashed append can also die before the inputs' own growth is visible
  // to the next run (the snapshot file carries torn bytes but the inputs
  // match the recovered prefix exactly).  The exact hit must still serve
  // from the prefix and rewrite a clean base so the tear does not linger.
  Fixture f = make_fixture("torn_exact", 6, 4);
  run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true);
  f.append_tle_records(1);
  run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true);

  const std::string bytes = io::read_file(f.snapshot_path());
  io::append_file(f.snapshot_path(), bytes.substr(0, 25));  // torn junk tail

  obs::Metrics warm;
  const RunOutput recovered =
      run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true, &warm);
  EXPECT_EQ(counter(warm, "ingest.cache_hit"), 1u);
  EXPECT_EQ(counter(warm, "snapshot.delta_truncated"), 1u);
  EXPECT_EQ(counter(warm, "snapshot.written"), 1u);
  expect_identical(recovered,
                   run_pipeline(f, ParsePolicy::kTolerant, 1, false));

  obs::Metrics exact;
  run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true, &exact);
  EXPECT_EQ(counter(exact, "ingest.cache_hit"), 1u);
  EXPECT_EQ(counter(exact, "snapshot.delta_truncated"), 0u);
}

TEST(DeltaSnapshotTest, CrossPolicyDeltasAreRejected) {
  // A layer whose header carries the other parse policy must break the
  // chain even when everything else lines up.
  Fixture f = make_fixture("cross_policy", 6, 4);
  run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true);
  const std::string base = io::read_file(f.snapshot_path());
  const std::optional<io::SnapshotData> decoded =
      io::decode_snapshot(base, ParsePolicy::kTolerant);
  ASSERT_TRUE(decoded.has_value());

  io::SnapshotDelta noop;
  noop.state = decoded->state;
  noop.dst_prior_size = decoded->dst.size();
  noop.dst_start_hour = decoded->dst.start_hour();
  noop.quality_delta.policy = ParsePolicy::kStrict;
  const std::string strict_layer = io::encode_snapshot_delta(
      noop, 1, decoded->chain_hash, ParsePolicy::kStrict);
  EXPECT_FALSE(
      io::decode_snapshot(base + strict_layer, ParsePolicy::kTolerant));

  // The same layer under the matching policy is accepted — proving the
  // rejection above was the policy byte, not the handcrafted layer.
  io::SnapshotDelta tolerant_noop = noop;
  tolerant_noop.quality_delta.policy = ParsePolicy::kTolerant;
  const std::string tolerant_layer = io::encode_snapshot_delta(
      tolerant_noop, 1, decoded->chain_hash, ParsePolicy::kTolerant);
  EXPECT_TRUE(
      io::decode_snapshot(base + tolerant_layer, ParsePolicy::kTolerant));

  // End to end: a whole snapshot built strict serves no tolerant run.
  f.append_tle_records(1);
  io::write_file(f.snapshot_path(), base);
  obs::Metrics strict_warm;
  run_pipeline(f, ParsePolicy::kStrict, 1, /*use_cache=*/true, &strict_warm);
  EXPECT_EQ(counter(strict_warm, "ingest.delta_hit"), 0u)
      << "a tolerant-built snapshot must not serve a strict run's delta";
  EXPECT_EQ(counter(strict_warm, "snapshot.rejected"), 1u);
}

// ---- randomized append/compact fuzz -----------------------------------------

TEST(DeltaSnapshotTest, RandomizedAppendEditCompactFuzzNeverDiverges) {
  // A seeded random walk over the whole surface: clean appends (either or
  // both files), appends carrying quarantine-bound records, boundary gaps,
  // in-place prefix edits, at alternating thread counts — with compaction
  // triggering naturally as layers pile up.  After every round the cached
  // run must be bit-identical to a from-scratch rebuild, and the counters
  // must show either a clean fast path (exact or delta) or an explicit
  // rejection — never a silent divergence.
  Fixture f = make_fixture("fuzz", 6, 4);
  run_pipeline(f, ParsePolicy::kTolerant, 1, /*use_cache=*/true);

  Rng rng(20260808);
  std::uint64_t delta_hits = 0;
  std::uint64_t rejections = 0;
  std::uint64_t compactions = 0;
  for (int round = 0; round < 16; ++round) {
    const std::int64_t action = rng.uniform_int(0, 9);
    if (action == 0) {
      // In-place prefix edit: flip one bit somewhere in the existing file.
      std::string text = io::read_file(f.tle_path);
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
      text[pos] = static_cast<char>(text[pos] ^ 0x01);
      io::write_file(f.tle_path, text);
    } else {
      if (action == 1) f.append_corrupt_tle_record();
      if (action == 2) f.append_orphan_line2();
      if (action == 3) f.skip_wdc_day();
      const auto records = rng.uniform_int(0, 2);
      const auto days = rng.uniform_int(0, 2);
      if (records > 0) f.append_tle_records(static_cast<int>(records));
      if (days > 0) f.append_wdc_days(static_cast<int>(days));
      if (action > 3 && records == 0 && days == 0) f.append_tle_records(1);
    }
    const int threads = round % 2 == 0 ? 1 : 4;
    obs::Metrics metrics;
    const RunOutput cached = run_pipeline(f, ParsePolicy::kTolerant, threads,
                                          /*use_cache=*/true, &metrics);
    const RunOutput rebuilt =
        run_pipeline(f, ParsePolicy::kTolerant, threads, /*use_cache=*/false);
    expect_identical(cached, rebuilt);
    const std::uint64_t fast = counter(metrics, "ingest.delta_hit") +
                               counter(metrics, "ingest.cache_hit");
    const std::uint64_t rejected = counter(metrics, "snapshot.rejected");
    EXPECT_TRUE(fast == 1 || rejected >= 1)
        << "round " << round << ": neither fast path nor explicit rejection";
    EXPECT_LE(fast, 1u) << "round " << round;
    delta_hits += counter(metrics, "ingest.delta_hit");
    rejections += rejected;
    compactions += counter(metrics, "snapshot.compacted");
  }
  // The walk must actually have exercised the interesting regimes.
  EXPECT_GE(delta_hits, 5u);
  EXPECT_GE(rejections, 1u);
  EXPECT_GE(compactions, 1u);
}

}  // namespace
}  // namespace cosmicdance
