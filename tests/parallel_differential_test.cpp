// The parallel-determinism differential suite: the full pipeline run at 1,
// 2 and 8 threads on identical inputs must produce *bit-identical* outputs
// (floating-point equality including NaN patterns, not tolerances).  This is
// the exec subsystem's ordering contract (DESIGN.md §"Parallel execution")
// checked end to end, plus direct stress tests that hammer the pool with
// uneven task sizes to flush scheduling-dependent ordering bugs.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/analysis.hpp"
#include "core/pipeline.hpp"
#include "exec/parallel_for.hpp"
#include "exec/thread_pool.hpp"
#include "simulation/scenario.hpp"
#include "spaceweather/generator.hpp"

namespace cosmicdance {
namespace {

using core::CosmicDance;
using core::EnvelopeSelection;
using core::PipelineConfig;
using core::SatelliteTrack;

/// Bitwise double equality: NaN == NaN (same payload), +0 != -0.  The
/// pipeline's per-satellite profiles carry NaN for uncovered days, so plain
/// == would vacuously fail there.
bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

::testing::AssertionResult VectorsBitIdentical(const std::vector<double>& a,
                                               const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!bits_equal(a[i], b[i])) {
      return ::testing::AssertionFailure()
             << "element " << i << " differs: " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult TracksBitIdentical(
    std::span<const SatelliteTrack> a, std::span<const SatelliteTrack> b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "track count mismatch: " << a.size() << " vs " << b.size();
  }
  for (std::size_t t = 0; t < a.size(); ++t) {
    if (a[t].catalog_number() != b[t].catalog_number()) {
      return ::testing::AssertionFailure()
             << "track " << t << " catalog number differs";
    }
    if (a[t].size() != b[t].size()) {
      return ::testing::AssertionFailure()
             << "track " << t << " sample count differs";
    }
    for (std::size_t i = 0; i < a[t].size(); ++i) {
      const auto& x = a[t].samples()[i];
      const auto& y = b[t].samples()[i];
      if (!bits_equal(x.epoch_jd, y.epoch_jd) ||
          !bits_equal(x.altitude_km, y.altitude_km) ||
          !bits_equal(x.bstar, y.bstar) ||
          !bits_equal(x.inclination_deg, y.inclination_deg) ||
          !bits_equal(x.raan_deg, y.raan_deg) ||
          !bits_equal(x.eccentricity, y.eccentricity) ||
          !bits_equal(x.arg_perigee_deg, y.arg_perigee_deg) ||
          !bits_equal(x.mean_anomaly_deg, y.mean_anomaly_deg) ||
          !bits_equal(x.mean_motion_revday, y.mean_motion_revday)) {
        return ::testing::AssertionFailure()
               << "track " << t << " sample " << i << " differs";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Shared input data plus one pipeline per thread count; generated once
/// (simulation is the expensive part) and reused by every test below.
class ParallelDifferential : public ::testing::Test {
 protected:
  struct State {
    spaceweather::DstIndex dst;
    tle::TleCatalog catalog;
    std::vector<CosmicDance> pipelines;  // threads 1, 2, 8 in order
  };

  static constexpr int kThreadCounts[] = {1, 2, 8};

  static State& state() {
    static State* s = [] {
      auto* out = new State;
      out->dst = spaceweather::DstGenerator(
                     spaceweather::DstGenerator::paper_window_2020_2024())
                     .generate();
      auto config = simulation::scenario::paper_window(&out->dst, 3, 20.0);
      out->catalog = simulation::ConstellationSimulator(config).run().catalog;
      for (const int threads : kThreadCounts) {
        PipelineConfig pipeline_config;
        pipeline_config.num_threads = threads;
        out->pipelines.emplace_back(out->dst, out->catalog, pipeline_config);
      }
      return out;
    }();
    return *s;
  }

  static const CosmicDance& serial() { return state().pipelines[0]; }
};

TEST_F(ParallelDifferential, CleanedTracksBitIdentical) {
  for (std::size_t p = 1; p < state().pipelines.size(); ++p) {
    EXPECT_TRUE(TracksBitIdentical(serial().tracks(),
                                   state().pipelines[p].tracks()))
        << "num_threads=" << kThreadCounts[p];
  }
  // Sanity: the dataset is big enough for a meaningful comparison.
  EXPECT_GT(serial().tracks().size(), 100u);
}

TEST_F(ParallelDifferential, RawTracksBitIdentical) {
  const auto baseline = serial().raw_tracks();
  for (std::size_t p = 1; p < state().pipelines.size(); ++p) {
    const auto other = state().pipelines[p].raw_tracks();
    EXPECT_TRUE(TracksBitIdentical(baseline, other))
        << "num_threads=" << kThreadCounts[p];
  }
}

TEST_F(ParallelDifferential, StormListsIdentical) {
  const auto baseline = serial().storms();
  ASSERT_FALSE(baseline.empty());
  for (std::size_t p = 1; p < state().pipelines.size(); ++p) {
    const auto other = state().pipelines[p].storms();
    ASSERT_EQ(baseline.size(), other.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_EQ(baseline[i].start_hour, other[i].start_hour);
      EXPECT_EQ(baseline[i].end_hour, other[i].end_hour);
      EXPECT_EQ(baseline[i].peak_hour, other[i].peak_hour);
      EXPECT_TRUE(bits_equal(baseline[i].peak_dst_nt, other[i].peak_dst_nt));
      EXPECT_EQ(baseline[i].category, other[i].category);
    }
  }
}

TEST_F(ParallelDifferential, EnvelopesBitIdentical) {
  const double p95 = serial().dst_threshold_at_percentile(95.0);
  const auto epochs = serial().correlator().storm_event_epochs(p95);
  ASSERT_FALSE(epochs.empty());
  const double event_jd = epochs.front();
  for (const auto selection :
       {EnvelopeSelection::kAffectedHumped, EnvelopeSelection::kAll}) {
    const auto baseline = serial().post_event_envelope(event_jd, 30, selection);
    for (std::size_t p = 1; p < state().pipelines.size(); ++p) {
      const auto other =
          state().pipelines[p].post_event_envelope(event_jd, 30, selection);
      EXPECT_EQ(baseline.satellites, other.satellites)
          << "num_threads=" << kThreadCounts[p];
      ASSERT_EQ(baseline.per_satellite.size(), other.per_satellite.size());
      for (std::size_t s = 0; s < baseline.per_satellite.size(); ++s) {
        EXPECT_TRUE(VectorsBitIdentical(baseline.per_satellite[s],
                                        other.per_satellite[s]))
            << "satellite " << s << ", num_threads=" << kThreadCounts[p];
      }
      EXPECT_TRUE(VectorsBitIdentical(baseline.median_km, other.median_km));
      EXPECT_TRUE(VectorsBitIdentical(baseline.p95_km, other.p95_km));
    }
  }
}

TEST_F(ParallelDifferential, CorrelationSampleVectorsBitIdentical) {
  const double p80 = serial().dst_threshold_at_percentile(80.0);
  const double p95 = serial().dst_threshold_at_percentile(95.0);
  const auto storm_baseline = serial().altitude_changes_for_storms(p95);
  const auto quiet_baseline = serial().altitude_changes_for_quiet(p80, 30);
  const auto drag_baseline = serial().drag_changes_for_storms(p95);
  ASSERT_FALSE(storm_baseline.empty());
  for (std::size_t p = 1; p < state().pipelines.size(); ++p) {
    const auto& pipeline = state().pipelines[p];
    EXPECT_TRUE(VectorsBitIdentical(storm_baseline,
                                    pipeline.altitude_changes_for_storms(p95)))
        << "storm samples, num_threads=" << kThreadCounts[p];
    EXPECT_TRUE(VectorsBitIdentical(
        quiet_baseline, pipeline.altitude_changes_for_quiet(p80, 30)))
        << "quiet samples, num_threads=" << kThreadCounts[p];
    EXPECT_TRUE(VectorsBitIdentical(drag_baseline,
                                    pipeline.drag_changes_for_storms(p95)))
        << "drag samples, num_threads=" << kThreadCounts[p];
  }
}

TEST_F(ParallelDifferential, AnalysisAggregationsBitIdentical) {
  const auto altitudes_baseline = core::all_altitudes(serial().tracks(), 1);
  const double start = timeutil::to_julian(serial().dst().start_datetime());
  const auto panel_baseline =
      core::superstorm_panel(serial().tracks(), serial().dst(), start + 100.0,
                             start + 140.0, /*num_threads=*/1);
  ASSERT_FALSE(panel_baseline.empty());
  for (const int threads : {2, 8}) {
    EXPECT_TRUE(VectorsBitIdentical(
        altitudes_baseline, core::all_altitudes(serial().tracks(), threads)));
    const auto panel = core::superstorm_panel(
        serial().tracks(), serial().dst(), start + 100.0, start + 140.0, threads);
    ASSERT_EQ(panel_baseline.size(), panel.size());
    for (std::size_t d = 0; d < panel.size(); ++d) {
      EXPECT_TRUE(bits_equal(panel_baseline[d].day_jd, panel[d].day_jd));
      EXPECT_TRUE(bits_equal(panel_baseline[d].dst_min_nt, panel[d].dst_min_nt));
      EXPECT_TRUE(bits_equal(panel_baseline[d].bstar_mean, panel[d].bstar_mean));
      EXPECT_TRUE(
          bits_equal(panel_baseline[d].bstar_median, panel[d].bstar_median));
      EXPECT_TRUE(bits_equal(panel_baseline[d].bstar_p95, panel[d].bstar_p95));
      EXPECT_EQ(panel_baseline[d].tracked_satellites, panel[d].tracked_satellites);
      EXPECT_EQ(panel_baseline[d].tle_count, panel[d].tle_count);
    }
  }
}

// ---- exec-layer stress tests ----------------------------------------------

/// Deterministic per-index work whose cost varies wildly between indices:
/// a scheduling-order bug (a worker writing a neighbour's slot, a skipped or
/// doubled chunk) shows up as a value mismatch against the serial run.
std::uint64_t uneven_work(std::size_t i) {
  // Spin length 0..~1000, pseudo-random per index.
  const std::uint64_t spin = (i * 2654435761u) % 1009u;
  std::uint64_t h = i + 0x9e3779b97f4a7c15ull;
  for (std::uint64_t k = 0; k < spin; ++k) {
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
  }
  return h;
}

TEST(ParallelForStress, UnevenTaskSizesPreserveOrdering) {
  constexpr std::size_t kCount = 20000;
  std::vector<std::uint64_t> expected(kCount);
  for (std::size_t i = 0; i < kCount; ++i) expected[i] = uneven_work(i);

  for (const int threads : {2, 3, 8, 0}) {
    for (int repeat = 0; repeat < 3; ++repeat) {
      const auto actual = exec::ordered_map<std::uint64_t>(
          kCount, threads, [](std::size_t i) { return uneven_work(i); });
      ASSERT_EQ(actual, expected) << "threads=" << threads
                                  << " repeat=" << repeat;
    }
  }
}

TEST(ParallelForStress, EveryIndexVisitedExactlyOnce) {
  constexpr std::size_t kCount = 50000;
  for (const int threads : {2, 8, 0}) {
    std::vector<std::atomic<int>> visits(kCount);
    exec::parallel_for(kCount, threads,
                       [&](std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) {
                           visits[i].fetch_add(1);
                         }
                       });
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "index " << i << " threads=" << threads;
    }
  }
}

TEST(ParallelForStress, ManySmallSectionsBackToBack) {
  // Hammer the shared pool with rapid-fire small sections (the pipeline's
  // actual usage pattern): stale state from a previous section must never
  // leak into the next.
  for (int round = 0; round < 200; ++round) {
    const std::size_t count = 1 + static_cast<std::size_t>(round % 37);
    const auto out = exec::ordered_map<std::size_t>(
        count, 4, [round](std::size_t i) { return i * 31 + round; });
    ASSERT_EQ(out.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(out[i], i * 31 + static_cast<std::size_t>(round));
    }
  }
}

TEST(ParallelForStress, NestedSectionsDoNotDeadlockOrReorder) {
  const auto outer = exec::ordered_map<std::uint64_t>(
      64, 4, [](std::size_t i) {
        const auto inner = exec::ordered_map<std::uint64_t>(
            32, 4, [i](std::size_t j) { return uneven_work(i * 32 + j); });
        std::uint64_t sum = 0;
        for (const std::uint64_t v : inner) sum += v;
        return sum;
      });
  for (std::size_t i = 0; i < 64; ++i) {
    std::uint64_t sum = 0;
    for (std::size_t j = 0; j < 32; ++j) sum += uneven_work(i * 32 + j);
    ASSERT_EQ(outer[i], sum) << "outer index " << i;
  }
}

TEST(ParallelForStress, BodyExceptionPropagates) {
  EXPECT_THROW(
      exec::parallel_for(1000, 4,
                         [](std::size_t begin, std::size_t) {
                           if (begin >= 500) throw std::runtime_error("boom");
                         }),
      std::runtime_error);
  // The pool must stay usable afterwards.
  const auto out =
      exec::ordered_map<std::size_t>(100, 4, [](std::size_t i) { return i; });
  ASSERT_EQ(out.size(), 100u);
  EXPECT_EQ(out[99], 99u);
}

TEST(ParallelForStress, SerialKnobNeverTouchesThePool) {
  // num_threads == 1 must run inline on the calling thread (the "exact
  // serial path" contract): observable as the body seeing one single
  // contiguous chunk.
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  exec::parallel_for(1000, 1, [&](std::size_t begin, std::size_t end) {
    // cdlint: allow(shared-mutable-capture) num_threads==1 is the exact serial path: one worker by contract
    chunks.emplace_back(begin, end);  // unsynchronised on purpose
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].first, 0u);
  EXPECT_EQ(chunks[0].second, 1000u);
}

TEST(ThreadPoolTest, ResolveThreadCount) {
  EXPECT_GE(exec::resolve_thread_count(0), 1u);
  EXPECT_EQ(exec::resolve_thread_count(1), 1u);
  EXPECT_EQ(exec::resolve_thread_count(6), 6u);
}

TEST(ThreadPoolTest, DrainsAllSubmittedTasks) {
  constexpr int kTasks = 5000;
  std::atomic<int> done{0};
  std::atomic<int> remaining{kTasks};
  std::mutex m;
  std::condition_variable cv;
  // Declared after everything its tasks touch, so its destructor joins the
  // workers before those are destroyed: the last task may still be inside
  // notify_one() when the wait below returns.
  exec::ThreadPool pool(4);
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&] {
      done.fetch_add(1);
      if (remaining.fetch_sub(1) == 1) {
        const std::lock_guard<std::mutex> lock(m);
        cv.notify_one();
      }
    });
  }
  std::unique_lock<std::mutex> lock(m);
  cv.wait(lock, [&] { return remaining.load() == 0; });
  EXPECT_EQ(done.load(), kTasks);
}

}  // namespace
}  // namespace cosmicdance
