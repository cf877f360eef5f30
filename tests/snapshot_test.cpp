// Differential and failure-matrix tests for the binary snapshot cache
// (DESIGN.md §13).
//
// The cache's contract is "bit-identical or rebuilt": a warm run must
// reproduce the cold run's catalog, Dst series and quality report exactly,
// and *any* disagreement — truncation, a flipped checksum byte, a stale content
// hash after an input edit, a format-version bump, a parse-policy mismatch
// — must silently fall back to the text path (counter `snapshot.rejected`),
// produce the same outputs as a cache-less run, and rewrite the snapshot.
// A deterministic corruption loop additionally proves the decoder never
// escapes as an exception.  The MappedFile auto/fallback readers are
// checked byte-identical here too, since the hash and the parsers both
// consume their views.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

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

/// `satellites` objects, two element sets each, as TLE text.
std::string tle_corpus(int satellites) {
  std::string text;
  for (int i = 0; i < satellites; ++i) {
    for (int elset = 0; elset < 2; ++elset) {
      const tle::TleLines formatted =
          tle::format_tle(make_tle(10001 + i, 0.5 * i + 2.0 * elset));
      text += formatted.line1;
      text.push_back('\n');
      text += formatted.line2;
      text.push_back('\n');
    }
  }
  return text;
}

/// A five-day Dst ramp over the same window, as WDC text.
std::string wdc_corpus() {
  std::vector<double> values;
  for (int h = 0; h < 5 * 24; ++h) values.push_back(-10.0 - 0.5 * h);
  return spaceweather::to_wdc(spaceweather::DstIndex(
      timeutil::make_datetime(2024, 5, 1), std::move(values)));
}

// ---- harness ----------------------------------------------------------------

struct TestInputs {
  std::string dir;
  std::string dst_path;
  std::string tle_path;
  std::string cache_dir;

  [[nodiscard]] std::string snapshot_path() const {
    return io::snapshot_cache_path(cache_dir, dst_path, tle_path);
  }
};

TestInputs write_inputs(const std::string& tag, const std::string& tle_text) {
  TestInputs inputs;
  inputs.dir = ::testing::TempDir() + "cdsnap_" + tag;
  std::filesystem::remove_all(inputs.dir);
  std::filesystem::create_directories(inputs.dir);
  inputs.dst_path = inputs.dir + "/dst.wdc";
  inputs.tle_path = inputs.dir + "/catalog.tle";
  inputs.cache_dir = inputs.dir + "/cache";
  io::write_file(inputs.dst_path, wdc_corpus());
  io::write_file(inputs.tle_path, tle_text);
  return inputs;
}

/// Everything the ingestion layer feeds downstream, in comparable form.
/// Equality here is bit-exactness: the double vectors compare with ==, and
/// the quality JSON embeds quarantine counters, line numbers, snippets and
/// their order.
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

RunOutput run_pipeline(const TestInputs& inputs, ParsePolicy policy,
                       int threads, bool use_cache,
                       obs::Metrics* metrics = nullptr) {
  core::PipelineConfig config;
  config.parse_policy = policy;
  config.num_threads = threads;
  config.metrics = metrics;
  if (use_cache) config.cache_dir = inputs.cache_dir;
  const core::CosmicDance pipeline =
      core::CosmicDance::from_files(inputs.dst_path, inputs.tle_path, config);
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

/// The failure-matrix driver: seed the cache with a cold run, corrupt the
/// snapshot via `mutate`, then prove the next run rejects it, matches a
/// cache-less parse bit for bit, rewrites the snapshot, and that the run
/// after *that* hits the rewritten one.
template <typename Mutator>
void expect_reject_and_fallback(const TestInputs& inputs, ParsePolicy policy,
                                const Mutator& mutate) {
  run_pipeline(inputs, policy, 1, /*use_cache=*/true);
  ASSERT_TRUE(std::filesystem::exists(inputs.snapshot_path()));
  mutate(inputs);

  obs::Metrics rejected_run;
  const RunOutput fallback =
      run_pipeline(inputs, policy, 1, /*use_cache=*/true, &rejected_run);
  EXPECT_EQ(counter(rejected_run, "snapshot.rejected"), 1u);
  EXPECT_EQ(counter(rejected_run, "ingest.cache_hit"), 0u);
  EXPECT_EQ(counter(rejected_run, "snapshot.loaded"), 0u);
  EXPECT_EQ(counter(rejected_run, "snapshot.written"), 1u)
      << "a rejected snapshot must be rewritten from the fresh parse";

  const RunOutput uncached =
      run_pipeline(inputs, policy, 1, /*use_cache=*/false);
  expect_identical(fallback, uncached);

  obs::Metrics warm_run;
  const RunOutput warm =
      run_pipeline(inputs, policy, 1, /*use_cache=*/true, &warm_run);
  EXPECT_EQ(counter(warm_run, "ingest.cache_hit"), 1u);
  EXPECT_EQ(counter(warm_run, "snapshot.rejected"), 0u);
  expect_identical(warm, uncached);
}

// ---- round trip -------------------------------------------------------------

TEST(SnapshotTest, EncodeDecodeRoundTripIsBitExact) {
  const std::string tle_text = tle_corpus(4);
  const std::string wdc_text = wdc_corpus();

  diag::ParseLog log(ParsePolicy::kTolerant);
  spaceweather::DstIndex dst = spaceweather::from_wdc(wdc_text, &log, "dst.wdc");
  tle::TleCatalog catalog;
  catalog.add_from_text(tle_text, tle::IngestOptions{&log, 1, "catalog.tle"});
  const io::SnapshotData data{dst, catalog, log.report(),
                              io::ingest_state_of(wdc_text, tle_text), 0, 0};

  const std::string bytes = io::encode_snapshot(data, ParsePolicy::kTolerant);

  const std::optional<io::SnapshotData> decoded =
      io::decode_snapshot(bytes, ParsePolicy::kTolerant);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->catalog.to_text(), catalog.to_text());
  EXPECT_EQ(decoded->dst.start_hour(), dst.start_hour());
  EXPECT_EQ(std::vector<double>(decoded->dst.values().begin(),
                                decoded->dst.values().end()),
            std::vector<double>(dst.values().begin(), dst.values().end()));
  EXPECT_EQ(decoded->quality.to_json(), log.report().to_json());
  EXPECT_EQ(decoded->state.combined_hash, data.state.combined_hash);
  EXPECT_EQ(decoded->state.dst_len, wdc_text.size());
  EXPECT_EQ(decoded->state.tle_len, tle_text.size());
  EXPECT_EQ(decoded->delta_layers, 0u);

  // A policy mismatch rejects before any payload decoding happens, and a
  // header content hash that disagrees with the encoded ingest state is a
  // structural inconsistency, not a usable snapshot.
  EXPECT_FALSE(io::decode_snapshot(bytes, ParsePolicy::kStrict));
  std::string tampered = bytes;
  tampered[16] = static_cast<char>(tampered[16] + 1);  // content hash LE byte
  EXPECT_FALSE(io::decode_snapshot(tampered, ParsePolicy::kTolerant));
}

// ---- hit vs miss ------------------------------------------------------------

TEST(SnapshotTest, ColdMissParsesAndWritesWarmHitLoads) {
  const TestInputs inputs = write_inputs("hit_vs_miss", tle_corpus(4));

  obs::Metrics cold;
  const RunOutput first =
      run_pipeline(inputs, ParsePolicy::kStrict, 1, /*use_cache=*/true, &cold);
  EXPECT_EQ(counter(cold, "snapshot.written"), 1u);
  EXPECT_EQ(counter(cold, "ingest.cache_hit"), 0u);
  EXPECT_EQ(counter(cold, "snapshot.rejected"), 0u);
  EXPECT_GT(counter(cold, "tle.records_parsed"), 0u);
  EXPECT_TRUE(std::filesystem::exists(inputs.snapshot_path()));

  obs::Metrics warm;
  const RunOutput second =
      run_pipeline(inputs, ParsePolicy::kStrict, 1, /*use_cache=*/true, &warm);
  EXPECT_EQ(counter(warm, "ingest.cache_hit"), 1u);
  EXPECT_EQ(counter(warm, "snapshot.loaded"), 1u);
  EXPECT_EQ(counter(warm, "snapshot.written"), 0u);
  EXPECT_EQ(counter(warm, "tle.records_parsed"), 0u)
      << "a cache hit must not parse any TLE text";
  expect_identical(first, second);

  const RunOutput uncached =
      run_pipeline(inputs, ParsePolicy::kStrict, 1, /*use_cache=*/false);
  expect_identical(second, uncached);
}

TEST(SnapshotTest, ThreadCountsShareTheCacheBitIdentically) {
  const TestInputs inputs = write_inputs("threads", tle_corpus(6));

  const RunOutput serial_cold =
      run_pipeline(inputs, ParsePolicy::kStrict, 1, /*use_cache=*/true);
  obs::Metrics warm;
  const RunOutput parallel_warm =
      run_pipeline(inputs, ParsePolicy::kStrict, 0, /*use_cache=*/true, &warm);
  EXPECT_EQ(counter(warm, "ingest.cache_hit"), 1u);
  expect_identical(serial_cold, parallel_warm);

  const RunOutput parallel_uncached =
      run_pipeline(inputs, ParsePolicy::kStrict, 0, /*use_cache=*/false);
  expect_identical(parallel_warm, parallel_uncached);
}

// ---- the readers behind the hash and the parsers ---------------------------

TEST(SnapshotTest, MappedAndFallbackReadersAreByteIdentical) {
  const TestInputs inputs = write_inputs("readers", tle_corpus(4));

  const io::MappedFile mapped(inputs.tle_path, io::MappedFile::Mode::kAuto);
  const io::MappedFile fallback(inputs.tle_path,
                                io::MappedFile::Mode::kFallbackRead);
  EXPECT_FALSE(fallback.is_mapped());
  ASSERT_EQ(mapped.view(), fallback.view());

  tle::TleCatalog from_mapped;
  tle::TleCatalog from_fallback;
  from_mapped.add_from_text(mapped.view());
  from_fallback.add_from_text(fallback.view());
  EXPECT_EQ(from_mapped.to_text(), from_fallback.to_text());

  // The content digest — the cache key — must agree across readers too.
  EXPECT_EQ(io::content_digest(mapped.view()),
            io::content_digest(fallback.view()));
}

// ---- failure matrix ---------------------------------------------------------

TEST(SnapshotTest, TruncatedSnapshotFallsBack) {
  const TestInputs inputs = write_inputs("truncated", tle_corpus(4));
  expect_reject_and_fallback(inputs, ParsePolicy::kStrict,
                             [](const TestInputs& t) {
                               std::string bytes = io::read_file(t.snapshot_path());
                               bytes.resize(bytes.size() / 2);
                               io::write_file(t.snapshot_path(), bytes);
                             });
}

TEST(SnapshotTest, FlippedCrcHeaderByteFallsBack) {
  const TestInputs inputs = write_inputs("crc_header", tle_corpus(4));
  expect_reject_and_fallback(inputs, ParsePolicy::kStrict,
                             [](const TestInputs& t) {
                               std::string bytes = io::read_file(t.snapshot_path());
                               ASSERT_GT(bytes.size(), 39u);
                               bytes[32] ^= 0x01;  // table checksum, bytes 32-39
                               io::write_file(t.snapshot_path(), bytes);
                             });
}

TEST(SnapshotTest, FlippedPayloadByteFailsTheCrcAndFallsBack) {
  const TestInputs inputs = write_inputs("crc_payload", tle_corpus(4));
  expect_reject_and_fallback(inputs, ParsePolicy::kStrict,
                             [](const TestInputs& t) {
                               std::string bytes = io::read_file(t.snapshot_path());
                               ASSERT_GT(bytes.size(), 44u);
                               bytes[44 + (bytes.size() - 44) / 2] ^= 0x10;
                               io::write_file(t.snapshot_path(), bytes);
                             });
}

TEST(SnapshotTest, FormatVersionBumpFallsBack) {
  const TestInputs inputs = write_inputs("version", tle_corpus(4));
  expect_reject_and_fallback(
      inputs, ParsePolicy::kStrict, [](const TestInputs& t) {
        std::string bytes = io::read_file(t.snapshot_path());
        ASSERT_GT(bytes.size(), 11u);
        bytes[8] = static_cast<char>(bytes[8] + 1);  // version u32 LE, low byte
        io::write_file(t.snapshot_path(), bytes);
      });
}

TEST(SnapshotTest, EditedInputMakesTheSnapshotStale) {
  const TestInputs inputs = write_inputs("stale", tle_corpus(4));
  // The snapshot file name hashes only the *paths*, so editing the TLE file
  // in place leaves the old snapshot exactly where the next run looks — the
  // stored content hash is the only thing that can catch it.  The edit is
  // in place (same length, different bytes): growth by appended records is
  // no longer stale, it is the delta fast path (delta_snapshot_test.cpp).
  expect_reject_and_fallback(
      inputs, ParsePolicy::kStrict, [](const TestInputs& t) {
        std::string text = io::read_file(t.tle_path);
        const std::size_t designator = text.find("20001A");
        ASSERT_NE(designator, std::string::npos);
        text[designator + 5] = 'B';  // restamp a designator mid-prefix
        io::write_file(t.tle_path, text);
      });
}

TEST(SnapshotTest, ShrunkInputMakesTheSnapshotStale) {
  const TestInputs inputs = write_inputs("shrunk", tle_corpus(4));
  // Truncation can never be served incrementally — the snapshot has
  // already committed records past the new end of file.
  expect_reject_and_fallback(
      inputs, ParsePolicy::kStrict, [](const TestInputs& t) {
        std::string text = io::read_file(t.tle_path);
        text.resize(text.size() - 140);  // drop the last two-line record
        io::write_file(t.tle_path, text);
      });
}

TEST(SnapshotTest, ParsePolicyMismatchFallsBack) {
  const TestInputs inputs = write_inputs("policy", tle_corpus(4));
  // Cold strict run seeds the cache; a tolerant run must not trust a
  // strict-built snapshot (its quality report encodes the other policy) —
  // it rejects, reparses tolerantly and rewrites.  The driver's final warm
  // run then proves the rewritten snapshot serves tolerant hits.
  expect_reject_and_fallback(
      inputs, ParsePolicy::kTolerant, [](const TestInputs& t) {
        std::filesystem::remove(t.snapshot_path());
        run_pipeline(t, ParsePolicy::kStrict, 1, /*use_cache=*/true);
      });
}

// ---- diagnostics round trip -------------------------------------------------

TEST(SnapshotTest, QuarantineDiagnosticsSurviveTheCache) {
  // Corrupt one record's checksum so the tolerant parse quarantines it; the
  // warm run must report the identical quarantine — same counters, same
  // line numbers, same snippet order — without ever seeing the text.
  std::string text = tle_corpus(4);
  const std::size_t second_line1 = text.find("\n1 ", text.find("\n2 ")) + 1;
  ASSERT_NE(second_line1, std::string::npos + 1);
  text[second_line1 + 68] =
      text[second_line1 + 68] == '0' ? '1' : '0';  // break the checksum
  const TestInputs inputs = write_inputs("quarantine", text);

  obs::Metrics cold;
  const RunOutput first = run_pipeline(inputs, ParsePolicy::kTolerant, 1,
                                       /*use_cache=*/true, &cold);
  EXPECT_NE(first.quality_json.find("quarantined"), std::string::npos);

  obs::Metrics warm;
  const RunOutput second = run_pipeline(inputs, ParsePolicy::kTolerant, 1,
                                        /*use_cache=*/true, &warm);
  EXPECT_EQ(counter(warm, "ingest.cache_hit"), 1u);
  expect_identical(first, second);

  const RunOutput uncached =
      run_pipeline(inputs, ParsePolicy::kTolerant, 1, /*use_cache=*/false);
  expect_identical(second, uncached);
}

// ---- corruption fuzz --------------------------------------------------------

TEST(SnapshotTest, RandomSingleBitCorruptionNeverThrows) {
  const TestInputs inputs = write_inputs("fuzz", tle_corpus(3));
  run_pipeline(inputs, ParsePolicy::kStrict, 1, /*use_cache=*/true);
  const std::string valid = io::read_file(inputs.snapshot_path());

  const std::optional<io::SnapshotData> baseline =
      io::decode_snapshot(valid, ParsePolicy::kStrict);
  ASSERT_TRUE(baseline.has_value());
  const std::string baseline_text = baseline->catalog.to_text();

  Rng rng(20260807);
  for (int i = 0; i < 200; ++i) {
    std::string bytes = valid;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1));
    bytes[pos] = static_cast<char>(
        bytes[pos] ^ static_cast<char>(1 << rng.uniform_int(0, 7)));
    std::optional<io::SnapshotData> decoded;
    // Never an exception: any disagreement must surface as nullopt.
    EXPECT_NO_THROW(decoded = io::decode_snapshot(bytes, ParsePolicy::kStrict))
        << "decode threw on a bit flip at byte " << pos;
    if (decoded.has_value()) {
      // Flips the checks cannot see (header padding) must be harmless.
      EXPECT_EQ(decoded->catalog.to_text(), baseline_text)
          << "accepted a corrupted snapshot, flip at byte " << pos;
    }
  }
}

// ---- concurrent writers -----------------------------------------------------

TEST(SnapshotTest, ConcurrentSaversNeverTearTheSnapshot) {
  // Several writers hammer one snapshot path with *different* valid
  // snapshots (two daemons sharing a cache dir, or reload racing a warm
  // start).  Because each save writes its own pid+serial temp file and the
  // final rename is atomic, every observable state of the file must be one
  // complete variant — a reader must never decode a torn hybrid.  Before
  // the per-writer temp names, all savers shared one ".tmp" file and
  // interleaved writes could rename a spliced file into place.
  constexpr int kWriters = 4;
  constexpr int kIterations = 25;

  const std::string dir = ::testing::TempDir() + "cdsnap_racers";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/cache/snapshot.cdsnap";

  // One distinct, decently sized snapshot per writer, plus its exact
  // encoded bytes for the end-state check.
  std::vector<io::SnapshotData> variants;
  std::vector<std::string> encoded;
  for (int w = 0; w < kWriters; ++w) {
    const std::string tle_text = tle_corpus(40 + 10 * w);
    const std::string wdc_text = wdc_corpus();
    diag::ParseLog log(ParsePolicy::kTolerant);
    spaceweather::DstIndex dst =
        spaceweather::from_wdc(wdc_text, &log, "dst.wdc");
    tle::TleCatalog catalog;
    catalog.add_from_text(tle_text,
                          tle::IngestOptions{&log, 1, "catalog.tle"});
    variants.push_back(io::SnapshotData{
        std::move(dst), std::move(catalog), log.report(),
        io::ingest_state_of(wdc_text, tle_text), 0, 0});
    encoded.push_back(
        io::encode_snapshot(variants.back(), ParsePolicy::kTolerant));
  }

  ASSERT_TRUE(
      io::save_snapshot(path, variants[0], ParsePolicy::kTolerant));

  std::atomic<bool> start{false};
  std::atomic<int> torn_reads{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      while (!start.load()) {
      }
      for (int i = 0; i < kIterations; ++i) {
        EXPECT_TRUE(io::save_snapshot(path,
                                      variants[static_cast<std::size_t>(w)],
                                      ParsePolicy::kTolerant));
      }
    });
  }
  // A concurrent reader: every observed file state must decode.
  threads.emplace_back([&] {
    while (!start.load()) {
    }
    for (int i = 0; i < kWriters * kIterations; ++i) {
      const std::optional<io::SnapshotData> decoded = io::load_snapshot(
          path, ParsePolicy::kTolerant);
      if (!decoded.has_value()) torn_reads.fetch_add(1);
    }
  });
  start.store(true);
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(torn_reads.load(), 0) << "a reader saw a torn snapshot file";

  // The survivor is one complete variant, byte for byte.
  const std::string final_bytes = io::read_file(path);
  bool matches_one = false;
  for (const std::string& bytes : encoded) {
    if (final_bytes == bytes) matches_one = true;
  }
  EXPECT_TRUE(matches_one) << "final snapshot is not any writer's output";

  // And nobody leaked a temp file.
  for (const auto& entry :
       std::filesystem::directory_iterator(dir + "/cache")) {
    EXPECT_EQ(entry.path().string().find(".tmp"), std::string::npos)
        << "stray temp file: " << entry.path();
  }
}

// ---- v3 section format ------------------------------------------------------

/// Parsed snapshot data over `satellites` objects (two element sets each),
/// with the matching ingest state — the input to the encoders under test.
io::SnapshotData make_snapshot_data(int satellites, ParsePolicy policy) {
  const std::string tle_text = tle_corpus(satellites);
  const std::string wdc_text = wdc_corpus();
  diag::ParseLog log(policy);
  spaceweather::DstIndex dst = spaceweather::from_wdc(wdc_text, &log, "dst.wdc");
  tle::TleCatalog catalog;
  catalog.add_from_text(tle_text, tle::IngestOptions{&log, 1, "catalog.tle"});
  return io::SnapshotData{std::move(dst), std::move(catalog), log.report(),
                          io::ingest_state_of(wdc_text, tle_text), 0, 0};
}

void expect_same_decoded(const io::SnapshotData& a, const io::SnapshotData& b) {
  EXPECT_EQ(a.catalog.to_text(), b.catalog.to_text());
  EXPECT_EQ(a.dst.start_hour(), b.dst.start_hour());
  EXPECT_EQ(std::vector<double>(a.dst.values().begin(), a.dst.values().end()),
            std::vector<double>(b.dst.values().begin(), b.dst.values().end()));
  EXPECT_EQ(a.quality.to_json(), b.quality.to_json());
  EXPECT_EQ(a.state.combined_hash, b.state.combined_hash);
}

// Header and table offsets (the format doc in snapshot.hpp).
constexpr std::size_t kHeaderBytes = 44;
constexpr std::size_t kTableChecksumOffset = 32;
constexpr std::size_t kSectionCountOffset = 40;
constexpr std::size_t kSectionEntryBytes = 28;
constexpr std::size_t kEntryOffsetField = 12;
constexpr std::size_t kEntryLengthField = 20;

std::uint32_t read_u32(const std::string& bytes, std::size_t offset) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) |
        static_cast<unsigned char>(bytes[offset + static_cast<std::size_t>(i)]);
  }
  return v;
}

void write_u32(std::string& bytes, std::size_t offset, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes[offset + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
}

void write_u64(std::string& bytes, std::size_t offset, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes[offset + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
}

/// Re-seal a hand-edited section table so only the *tiling* checks can
/// reject it: recompute the table checksum and patch the header field.
void reseal_table(std::string& bytes) {
  const std::uint32_t sections = read_u32(bytes, kSectionCountOffset);
  const std::string_view table(bytes.data() + kHeaderBytes,
                               sections * kSectionEntryBytes);
  write_u64(bytes, kTableChecksumOffset, io::content_digest(table));
}

TEST(SnapshotV3Test, EncodeAndDecodeAreThreadCountInvariant) {
  // 9000 satellites x 2 element sets crosses the stripe target, so the
  // file carries multiple catalog stripes and the parallel encode/decode
  // paths genuinely run multi-section.
  const io::SnapshotData data = make_snapshot_data(9000, ParsePolicy::kStrict);
  const std::string serial = io::encode_snapshot(data, ParsePolicy::kStrict, 1);
  ASSERT_GT(read_u32(serial, kSectionCountOffset), 4u)
      << "corpus too small to produce multiple catalog stripes";
  for (const int threads : {4, 8}) {
    EXPECT_EQ(io::encode_snapshot(data, ParsePolicy::kStrict, threads), serial)
        << "encode bytes differ at " << threads << " threads";
  }
  const std::optional<io::SnapshotData> reference =
      io::decode_snapshot(serial, ParsePolicy::kStrict, 1);
  ASSERT_TRUE(reference.has_value());
  expect_same_decoded(*reference, data);
  for (const int threads : {4, 8}) {
    const std::optional<io::SnapshotData> decoded =
        io::decode_snapshot(serial, ParsePolicy::kStrict, threads);
    ASSERT_TRUE(decoded.has_value());
    expect_same_decoded(*decoded, *reference);
  }
}

TEST(SnapshotV3Test, TruncatedSectionTableRejects) {
  const io::SnapshotData data = make_snapshot_data(4, ParsePolicy::kStrict);
  std::string bytes = io::encode_snapshot(data, ParsePolicy::kStrict);
  // Chop the payload mid-table and restate the header's payload size so
  // only the section-table bounds check can catch it.
  const std::uint32_t sections = read_u32(bytes, kSectionCountOffset);
  const std::size_t half_table =
      (sections / 2) * kSectionEntryBytes;
  bytes.resize(kHeaderBytes + half_table);
  write_u64(bytes, 24, half_table);
  EXPECT_FALSE(io::decode_snapshot(bytes, ParsePolicy::kStrict).has_value());
}

TEST(SnapshotV3Test, FlippedSectionTableByteRejects) {
  const io::SnapshotData data = make_snapshot_data(4, ParsePolicy::kStrict);
  std::string bytes = io::encode_snapshot(data, ParsePolicy::kStrict);
  bytes[kHeaderBytes + kEntryOffsetField] ^= 0x01;  // first entry's offset
  EXPECT_FALSE(io::decode_snapshot(bytes, ParsePolicy::kStrict).has_value());
}

TEST(SnapshotV3Test, FlippedSectionBodyByteFailsThatSectionsCrc) {
  const io::SnapshotData data = make_snapshot_data(4, ParsePolicy::kStrict);
  std::string bytes = io::encode_snapshot(data, ParsePolicy::kStrict);
  // The lowest mantissa bit of the last Dst value: the section still
  // decodes to a valid series, so only its checksum can notice.
  const std::size_t body =
      kHeaderBytes + read_u32(bytes, kSectionCountOffset) * kSectionEntryBytes;
  const std::size_t dst_entry = kHeaderBytes + kSectionEntryBytes;
  const std::size_t dst_end = body +
                              read_u32(bytes, dst_entry + kEntryOffsetField) +
                              read_u32(bytes, dst_entry + kEntryLengthField);
  bytes[dst_end - 8] ^= 0x01;
  EXPECT_FALSE(io::decode_snapshot(bytes, ParsePolicy::kStrict).has_value());
}

TEST(SnapshotV3Test, OverlappingOrGappedSectionsReject) {
  const io::SnapshotData data = make_snapshot_data(4, ParsePolicy::kStrict);
  const std::string bytes = io::encode_snapshot(data, ParsePolicy::kStrict);
  const std::size_t entry1 = kHeaderBytes + kSectionEntryBytes;

  // Slide the second section's offset back onto the first (overlap) and
  // forward past it (gap); reseal the table checksum both times so the tiling
  // check itself must reject.
  std::string overlap = bytes;
  write_u64(overlap, entry1 + kEntryOffsetField, 0);
  reseal_table(overlap);
  EXPECT_FALSE(io::decode_snapshot(overlap, ParsePolicy::kStrict).has_value());

  std::string gap = bytes;
  const std::uint64_t first_length =
      read_u32(bytes, kHeaderBytes + kEntryLengthField);
  write_u64(gap, entry1 + kEntryOffsetField, first_length + 8);
  reseal_table(gap);
  EXPECT_FALSE(io::decode_snapshot(gap, ParsePolicy::kStrict).has_value());
}

TEST(SnapshotV3Test, OversizedSectionCountRejects) {
  const io::SnapshotData data = make_snapshot_data(4, ParsePolicy::kStrict);
  std::string bytes = io::encode_snapshot(data, ParsePolicy::kStrict);
  // A section count whose table alone would exceed the payload must be
  // rejected by the bounds check, not trusted as an allocation size.
  write_u32(bytes, kSectionCountOffset, 0x00FFFFFFu);
  EXPECT_FALSE(io::decode_snapshot(bytes, ParsePolicy::kStrict).has_value());
}

TEST(SnapshotV3Test, StaleContentHashRejects) {
  const io::SnapshotData data = make_snapshot_data(4, ParsePolicy::kStrict);
  std::string bytes = io::encode_snapshot(data, ParsePolicy::kStrict);
  // Header hash and the state section's embedded copy must agree — a
  // mismatch means the header belongs to different inputs.
  bytes[16] ^= 0x01;
  EXPECT_FALSE(io::decode_snapshot(bytes, ParsePolicy::kStrict).has_value());
}

// ---- caches from earlier formats -------------------------------------------

/// A cache the v4 encoder wrote for the inputs write_inputs(_, tle_corpus(6))
/// produces, under the strict policy: a 40-byte header and CRC32C in every
/// checksum field.
const std::string kV4Snapshot =
    std::string(COSMICDANCE_GOLDEN_DIR) + "/snapshot_v4.cdsnap";

/// Restamps the v4 cache as `version` and requires what any earlier format
/// must do: reject once, reparse bit-identically and be replaced by a
/// current file.  v2 and v3 carried FNV-1a identities, v4 CRC32C seals;
/// none can be trusted today.  The decoder reads the version before
/// anything else, so the restamped v4 file stands for v2 and v3 too.
void expect_earlier_format_is_rewritten(std::uint32_t version) {
  SCOPED_TRACE(version);
  const TestInputs inputs =
      write_inputs("v" + std::to_string(version) + "_file", tle_corpus(6));
  expect_reject_and_fallback(
      inputs, ParsePolicy::kStrict, [&](const TestInputs& t) {
        std::string bytes = io::read_file(kV4Snapshot);
        ASSERT_EQ(read_u32(bytes, 8), 4u);
        // The input digest (bytes 16-23 in both formats) matches these
        // inputs, so only the format can reject the file.
        ASSERT_EQ(bytes.substr(16, 8),
                  io::read_file(t.snapshot_path()).substr(16, 8));
        write_u32(bytes, 8, version);
        io::write_file(t.snapshot_path(), bytes);
      });
  EXPECT_EQ(read_u32(io::read_file(inputs.snapshot_path()), 8),
            io::kSnapshotFormatVersion);
}

TEST(SnapshotV2Compat, V2FileRejectsReparsesAndIsRewrittenAsCurrent) {
  expect_earlier_format_is_rewritten(2);
}

TEST(SnapshotDigestTest, V3FileFromThePreviousFormatRejectsOnceAndIsRewritten) {
  expect_earlier_format_is_rewritten(3);
}

TEST(SnapshotFormatTest, V4FileSealedWithCrc32cRejectsOnceAndIsRewritten) {
  expect_earlier_format_is_rewritten(4);
}

// ---- content digest ---------------------------------------------------------

TEST(SnapshotDigestTest, MatchesTheXxh64KnownAnswers) {
  EXPECT_EQ(io::content_digest(""), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(io::content_digest("abc"), 0x44BC2CF5AD770999ULL);
  // Longer vectors reach the 4- and 8-byte tails and the 32-byte stripes.
  EXPECT_EQ(io::content_digest("message digest"), 0x066ED728FCEEB3BEULL);
  EXPECT_EQ(io::content_digest("abcdefghijklmnopqrstuvwxyz"),
            0xCFE1F278FA89835CULL);
  EXPECT_EQ(io::content_digest("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrs"
                               "tuvwxyz0123456789"),
            0xAAA46907D3047814ULL);
  EXPECT_EQ(io::content_digest(std::string(
                "1234567890123456789012345678901234567890"
                "1234567890123456789012345678901234567890")),
            0xE04A477F19EE145DULL);
}

TEST(SnapshotDigestTest, SeedsChainBuffersIntoOneIdentity) {
  const std::string dst = wdc_corpus();
  const std::string tle = tle_corpus(3);
  const io::IngestState state = io::ingest_state_of(dst, tle);
  EXPECT_EQ(state.dst_hash, io::content_digest(dst));
  EXPECT_EQ(state.combined_hash,
            io::content_digest(tle, io::content_digest(dst)));
  // The seed is part of the identity: the same TLE bytes behind different
  // Dst bytes (or none) digest differently, as does a one-byte edit.
  EXPECT_NE(io::content_digest(tle, 1), io::content_digest(tle, 2));
  EXPECT_NE(state.combined_hash, io::content_digest(tle));
  std::string edited = tle;
  edited[edited.size() / 2] ^= 0x01;
  EXPECT_NE(io::content_digest(edited, state.dst_hash), state.combined_hash);
}

/// Random text from TLE-shaped and other lines, with LF or CRLF endings,
/// blank lines, and (sometimes) no final newline.
std::string random_text(Rng& rng) {
  const std::string corpus = tle_corpus(2);
  const std::string line1 = corpus.substr(0, corpus.find('\n'));
  const std::string line2 = corpus.substr(line1.size() + 1, 69);
  const std::string pieces[] = {line1, line2, "", "noise", "2 garbage"};
  std::string text;
  const std::int64_t lines = rng.uniform_int(0, 12);
  for (std::int64_t i = 0; i < lines; ++i) {
    text += pieces[static_cast<std::size_t>(rng.uniform_int(0, 4))];
    text += rng.uniform_int(0, 1) == 0 ? "\n" : "\r\n";
  }
  if (!text.empty() && rng.uniform_int(0, 2) == 0) text.pop_back();
  return text;
}

TEST(SnapshotDigestTest, ClassifyIsExactOnItsOwnStateAndAppendsExtendIt) {
  Rng rng(20261018);
  for (int i = 0; i < 300; ++i) {
    const std::string dst = random_text(rng);
    const std::string tle = random_text(rng);
    const io::IngestState state = io::ingest_state_of(dst, tle);
    const io::InputClassification exact =
        io::classify_inputs(state, dst, tle);
    EXPECT_EQ(exact.match, io::InputMatch::kExact) << "case " << i;
    EXPECT_TRUE(exact.current == state) << "case " << i;

    // Any prefix pair of the same inputs: an append exactly when something
    // grew past a boundary that is safe to extend, and then the extended
    // state equals the state computed from scratch.
    const auto dst_cut = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(dst.size())));
    const auto tle_cut = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(tle.size())));
    const io::IngestState prefix = io::ingest_state_of(
        std::string_view(dst).substr(0, dst_cut),
        std::string_view(tle).substr(0, tle_cut));
    const bool dst_grew = dst_cut < dst.size();
    const bool tle_grew = tle_cut < tle.size();
    const bool appendable =
        (dst_grew || tle_grew) &&
        (!dst_grew || prefix.dst_line_terminated) &&
        (!tle_grew ||
         (prefix.tle_line_terminated && prefix.tle_boundary_clean));
    const io::InputClassification grown =
        io::classify_inputs(prefix, dst, tle);
    if (!dst_grew && !tle_grew) {
      EXPECT_EQ(grown.match, io::InputMatch::kExact) << "case " << i;
    } else if (appendable) {
      EXPECT_EQ(grown.match, io::InputMatch::kAppend) << "case " << i;
      EXPECT_TRUE(grown.current == state) << "case " << i;
    } else {
      EXPECT_EQ(grown.match, io::InputMatch::kMismatch) << "case " << i;
    }
  }
}

// ---- counters and the background save ---------------------------------------

TEST(SnapshotCounters, SaveBytesAndLoadRecordsArePinned) {
  const std::string dir = ::testing::TempDir() + "cdsnap_counters";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/snapshot.cdsnap";
  const io::SnapshotData data = make_snapshot_data(8, ParsePolicy::kStrict);

  obs::Metrics metrics;
  ASSERT_TRUE(
      io::save_snapshot(path, data, ParsePolicy::kStrict, &metrics, 2));
  EXPECT_EQ(counter(metrics, "snapshot.written"), 1u);
  EXPECT_EQ(counter(metrics, "snapshot.save_bytes"),
            std::filesystem::file_size(path));

  const std::optional<io::SnapshotData> loaded =
      io::load_snapshot(path, ParsePolicy::kStrict, &metrics, 2);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(counter(metrics, "snapshot.load_records"),
            data.catalog.record_count());
  const obs::MetricsReport report = metrics.snapshot();
  const auto sections = report.scheduling.find("snapshot.load_sections");
  ASSERT_NE(sections, report.scheduling.end());
  // Small corpus = one catalog stripe: state + Dst + stripe + quality.
  EXPECT_EQ(sections->second, 4u);
}

TEST(SnapshotPipeline, BackgroundSaveCompletesOnWait) {
  const TestInputs inputs = write_inputs("bg_save", tle_corpus(6));
  core::PipelineConfig config;
  config.cache_dir = inputs.cache_dir;
  core::CosmicDance pipeline =
      core::CosmicDance::from_files(inputs.dst_path, inputs.tle_path, config);
  pipeline.wait_for_snapshot_save();
  EXPECT_TRUE(std::filesystem::exists(inputs.snapshot_path()))
      << "wait_for_snapshot_save returned before the cache was written";
  // The pending-save future must survive a move and a second wait must be
  // a no-op — both on the moved-to object and the moved-from shell.
  core::CosmicDance moved = std::move(pipeline);
  moved.wait_for_snapshot_save();
  const std::optional<io::SnapshotData> loaded = io::load_snapshot(
      inputs.snapshot_path(), ParsePolicy::kStrict);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->catalog.to_text(), moved.catalog().to_text());
}

}  // namespace
}  // namespace cosmicdance
