// Shared helpers for the figure benches: standard datasets at bench scale
// and paper-vs-measured printing.
//
// Scale note: the real study observes ~6,000 satellites; benches default to
// a few hundred (launch batches are shrunk, the timeline is not) so every
// binary runs in seconds.  The *shapes* under comparison are scale-free;
// absolute counts are reported next to the scale factor.
#pragma once

#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "common/json.hpp"
#include "core/pipeline.hpp"
#include "exec/thread_pool.hpp"
#include "io/args.hpp"
#include "io/file.hpp"
#include "obs/obs.hpp"
#include "simulation/scenario.hpp"
#include "spaceweather/generator.hpp"

namespace cosmicdance::bench {

/// The calibrated 2020 - May 2024 Dst series.
inline spaceweather::DstIndex paper_dst() {
  return spaceweather::DstGenerator(
             spaceweather::DstGenerator::paper_window_2020_2024())
      .generate();
}

/// Paper window extended through the May-2024 super-storm.
inline spaceweather::DstIndex superstorm_dst() {
  return spaceweather::DstGenerator(
             spaceweather::DstGenerator::with_may_2024_superstorm())
      .generate();
}

/// Standard bench-scale constellation run over the paper window.
/// `per_batch`=4 / cadence 16 days yields ~400 satellites.
inline tle::TleCatalog paper_catalog(const spaceweather::DstIndex& dst,
                                     int per_batch = 4, double cadence = 16.0) {
  auto config = simulation::scenario::paper_window(&dst, per_batch, cadence);
  return simulation::ConstellationSimulator(config).run().catalog;
}

/// Pipeline config from a bench binary's command line: every figure bench
/// accepts --threads N (0 = all hardware threads, 1 = serial; the exec
/// ordering contract makes the outputs identical either way).
inline core::PipelineConfig config_from_args(int argc, const char* const* argv) {
  const io::ArgParser args(argc, argv);
  core::PipelineConfig config;
  config.num_threads = static_cast<int>(args.nonnegative_integer_or("threads", 0));
  return config;
}

/// Print a "paper says / we measured" comparison line.
inline void expect(const std::string& what, const std::string& paper,
                   double measured, int precision = 1) {
  std::printf("  %-52s paper: %-14s measured: %.*f\n", what.c_str(),
              paper.c_str(), precision, measured);
}

inline void note(const std::string& text) {
  std::printf("  %s\n", text.c_str());
}

/// Machine-readable bench telemetry record, shared by the micro benches:
///   {"bench": ..., "threads": N, "threads_resolved": W,
///    "hardware_concurrency": H, "dataset": ...,
///    "throughput": {"name": rate, ...}, "metrics": <MetricsReport JSON>}
/// `threads` is the requested knob (0 = auto); `threads_resolved` is the
/// worker count the exec subsystem actually ran, and
/// `hardware_concurrency` the machine it ran on — without both, a
/// throughput regression on an 8-core box and a healthy run on a 1-core
/// box are indistinguishable in the archived records.
/// Non-finite rates are written as null (JSON has no NaN/Inf).
inline void write_bench_record(const std::string& path, const std::string& bench,
                               int threads, const std::string& dataset,
                               const std::map<std::string, double>& throughput,
                               const obs::Metrics& metrics) {
  std::string json =
      "{\n  \"bench\": \"" + escape_json(bench) + "\",\n  \"threads\": " +
      std::to_string(threads) + ",\n  \"threads_resolved\": " +
      std::to_string(exec::resolve_thread_count(threads)) +
      ",\n  \"hardware_concurrency\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ",\n  \"dataset\": \"" + escape_json(dataset) + "\",\n  \"throughput\": {";
  bool first = true;
  for (const auto& [name, value] : throughput) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + escape_json(name) + "\": " + json_number(value);
  }
  json += "},\n  \"metrics\": " + metrics.snapshot().to_json() + "\n}\n";
  io::write_file(path, json);
  std::printf("wrote bench record to %s\n", path.c_str());
}

}  // namespace cosmicdance::bench
