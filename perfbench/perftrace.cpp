// perftrace — the benchmark's traced, in-process replay of the CosmicDance
// CLI and daemon paths, plus the host-drift probe.
//
//   perftrace replay --dst F --tles F --work DIR --requests F --seed S
//                    [--per-batch N --cadence D] [--threads N] [--reps K]
//                    [--phases analyze,simulate,serve] --spans-out F
//   perftrace probe [--reps N]
//
// `replay` calls each module's public functions in the order
// `cosmicdance analyze` (cold and cache-warm), `cosmicdance simulate` and
// `cosmicdanced` call them, and records a span (name, start, end, parent,
// iteration) around every call into a layer.  Spans stay in memory and are
// written to --spans-out once at the end; perfbench/run.py turns them into
// per-layer medians.  The replay writes the same outputs the CLI writes
// (analysis CSVs, the simulated catalog, the daemon's responses) under
// --work so run.py can check them against the CLI byte for byte.
//
// `probe` times a fixed CPU + memory kernel that depends on nothing in the
// program; run.py runs it at the start and end of every benchmark run to
// tell host drift apart from program changes.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/analysis.hpp"
#include "core/cleaning.hpp"
#include "core/correlator.hpp"
#include "core/export.hpp"
#include "core/pipeline.hpp"
#include "core/track.hpp"
#include "diag/diag.hpp"
#include "io/args.hpp"
#include "io/csv.hpp"
#include "io/file.hpp"
#include "io/snapshot.hpp"
#include "obs/obs.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "simulation/constellation.hpp"
#include "simulation/scenario.hpp"
#include "spaceweather/storms.hpp"
#include "spaceweather/wdc.hpp"
#include "stats/ecdf.hpp"
#include "timeutil/datetime.hpp"
#include "tle/catalog.hpp"

using namespace cosmicdance;

namespace {

using Clock = std::chrono::steady_clock;

// ---- span recording --------------------------------------------------------

struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;     ///< index of the enclosing span, -1 for a root
  int iteration = -1;  ///< id shared by a root span and everything under it
  bool async = false;  ///< ran beside its parent, off the blocking path
};

struct Count {
  std::string name;
  int iteration = -1;
  double value = 0.0;
};

/// Single-threaded span recorder.  Work timed on another thread (the
/// background snapshot save) is handed in afterwards through add_async().
class Tracer {
 public:
  int open(std::string name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    if (parent < 0) iteration_ = next_iteration_++;
    spans_.push_back({std::move(name), now_ms(), 0.0, parent, iteration_, false});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_ms = now_ms();
    stack_.pop_back();
  }

  void add_async(std::string name, Clock::time_point start, Clock::time_point end) {
    spans_.push_back({std::move(name), ms_since_origin(start),
                      ms_since_origin(end), stack_.empty() ? -1 : stack_.back(),
                      iteration_, true});
  }

  void count(std::string name, double value) {
    counts_.push_back({std::move(name), iteration_, value});
  }

  [[nodiscard]] std::string to_json() const {
    std::ostringstream out;
    out.precision(17);
    out << "{\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << serve::escape_json(s.name)
          << "\",\"start_ms\":" << s.start_ms << ",\"end_ms\":" << s.end_ms
          << ",\"parent\":" << s.parent << ",\"iteration\":" << s.iteration
          << ",\"async\":" << (s.async ? "true" : "false") << "}";
    }
    out << "],\n\"counts\":[";
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      const Count& c = counts_[i];
      out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << serve::escape_json(c.name)
          << "\",\"iteration\":" << c.iteration << ",\"value\":" << c.value << "}";
    }
    out << "]}\n";
    return out.str();
  }

 private:
  [[nodiscard]] double ms_since_origin(Clock::time_point t) const {
    return std::chrono::duration<double, std::milli>(t - origin_).count();
  }
  [[nodiscard]] double now_ms() const { return ms_since_origin(Clock::now()); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<Count> counts_;
  std::vector<int> stack_;
  int iteration_ = -1;
  int next_iteration_ = 0;
};

class Scope {
 public:
  Scope(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.open(std::move(name))) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Run `fn` inside a span and return its result.
template <class Fn>
auto traced(Tracer& tracer, std::string name, Fn&& fn) {
  const Scope scope(tracer, std::move(name));
  return fn();
}

// ---- replay inputs ---------------------------------------------------------

struct Replay {
  std::string dst_path;
  std::string tle_path;
  std::string work;
  std::vector<std::string> requests;
  std::uint64_t seed = 7;
  int per_batch = 2;
  double cadence_days = 30.0;
  int threads = 0;
  int reps = 1;
};

std::uint64_t file_bytes(const std::string& path) {
  return static_cast<std::uint64_t>(std::filesystem::file_size(path));
}

// ---- analyze (cmd_analyze + CosmicDance::from_files, cold and warm) --------

/// Everything a CosmicDance pipeline owns, torn down inside a span.
struct Loaded {
  spaceweather::DstIndex dst;
  tle::TleCatalog catalog;
  std::vector<core::SatelliteTrack> tracks;
  std::unique_ptr<core::EventCorrelator> correlator;
};

/// The CosmicDance constructor: build tracks, clean, warm caches, correlator.
void build_pipeline(Tracer& t, Loaded& data, int threads) {
  core::CorrelatorConfig correlator;
  correlator.num_threads = threads;
  auto built = traced(t, "core.build_tracks", [&] {
    return core::tracks_from_catalog(data.catalog, threads, nullptr);
  });
  data.tracks = traced(t, "core.clean_tracks", [&] {
    return core::clean_tracks(std::move(built), correlator.cleaning, threads, nullptr);
  });
  traced(t, "core.warm_median_caches",
         [&] { core::warm_median_caches(data.tracks, threads); });
  data.correlator = traced(t, "core.correlator_init", [&] {
    return std::make_unique<core::EventCorrelator>(&data.dst, correlator);
  });
}

void write_rows(Tracer& t, const std::string& path,
                const std::vector<io::CsvRow>& rows) {
  traced(t, "io.csv_write", [&] { io::write_csv_file(path, rows); });
  t.count("io.csv_bytes", static_cast<double>(file_bytes(path)));
}

void write_ecdf(Tracer& t, const std::vector<double>& values,
                const std::string& value_name, const std::string& path) {
  const auto ecdf = traced(t, "stats.ecdf", [&] { return stats::Ecdf(values); });
  const auto rows = traced(t, "core.export_rows",
                           [&] { return core::ecdf_csv(ecdf, value_name); });
  write_rows(t, path, rows);
}

/// The body of cmd_analyze after the pipeline is loaded, in its order.
void export_figures(Tracer& t, const Loaded& data, int threads,
                    const std::string& out_dir) {
  auto path = [&](const char* name) { return out_dir + "/" + name; };
  {
    const std::vector<double> values(data.dst.values().begin(),
                                     data.dst.values().end());
    write_ecdf(t, values, "dst_nt", path("fig01_intensity_cdf.csv"));
  }
  const auto storms = traced(t, "spaceweather.storm_detect", [&] {
    return spaceweather::StormDetector(spaceweather::StormDetectorConfig{})
        .detect(data.dst);
  });
  write_rows(t, path("storms.csv"),
             traced(t, "core.export_rows", [&] { return core::storms_csv(storms); }));
  const double p80 = traced(t, "spaceweather.percentile",
                            [&] { return data.dst.dst_threshold_at_percentile(80.0); });
  const double p95 = traced(t, "spaceweather.percentile",
                            [&] { return data.dst.dst_threshold_at_percentile(95.0); });
  const core::EventCorrelator& correlator = *data.correlator;
  const auto quiet = traced(t, "core.correlate", [&] {
    return correlator.altitude_change_samples(data.tracks,
                                              correlator.quiet_epochs(p80, 30));
  });
  if (!quiet.empty()) {
    write_ecdf(t, quiet, "alt_change_km", path("fig05a_quiet_altitude_change_cdf.csv"));
  }
  const auto storm_changes = traced(t, "core.correlate", [&] {
    return correlator.altitude_change_samples(data.tracks,
                                              correlator.storm_event_epochs(p95));
  });
  if (!storm_changes.empty()) {
    write_ecdf(t, storm_changes, "alt_change_km",
               path("fig05b_storm_altitude_change_cdf.csv"));
  }
  const auto drag = traced(t, "core.correlate", [&] {
    return correlator.drag_change_samples(data.tracks,
                                          correlator.storm_event_epochs(p95));
  });
  if (!drag.empty()) {
    write_ecdf(t, drag, "bstar_ratio", path("fig05c_drag_change_cdf.csv"));
  }
  std::vector<double> raw;
  {
    // The CLI builds the raw tracks as a temporary: building and freeing
    // them both belong to this span.
    const Scope scope(t, "core.raw_tracks");
    const auto raw_tracks = core::tracks_from_catalog(data.catalog, threads, nullptr);
    raw = traced(t, "core.all_altitudes",
                 [&] { return core::all_altitudes(raw_tracks, threads, nullptr); });
  }
  const auto cleaned = traced(t, "core.all_altitudes", [&] {
    return core::all_altitudes(data.tracks, threads, nullptr);
  });
  write_ecdf(t, raw, "altitude_km", path("fig10a_raw_altitude_cdf.csv"));
  write_ecdf(t, cleaned, "altitude_km", path("fig10b_clean_altitude_cdf.csv"));
}

struct SaveResult {
  Clock::time_point start;
  Clock::time_point end;
};

/// `cosmicdance analyze --cache-dir <empty>`: text parse, background
/// snapshot save, analysis, save join at teardown.
void analyze_cold(Tracer& t, const Replay& r, const std::string& cache_dir,
                  const std::string& out_dir) {
  std::filesystem::remove_all(cache_dir);
  const Scope root(t, "analyze_cold");
  std::optional<Loaded> data(std::in_place);
  std::future<SaveResult> save;
  {
    traced(t, "io.out_dir", [&] { std::filesystem::create_directories(out_dir); });
    std::optional<io::MappedFile> dst_file;
    std::optional<io::MappedFile> tle_file;
    traced(t, "io.map_inputs", [&] {
      dst_file.emplace(r.dst_path);
      tle_file.emplace(r.tle_path);
    });
    const std::string snapshot_path = traced(t, "io.snapshot_load", [&] {
      std::string p = io::snapshot_cache_path(cache_dir, r.dst_path, r.tle_path);
      if (io::load_snapshot(p, diag::ParsePolicy::kStrict, nullptr, r.threads)) {
        throw std::runtime_error("cold replay found a snapshot in " + cache_dir);
      }
      return p;
    });
    diag::ParseLog log(diag::ParsePolicy::kStrict);
    data->dst = traced(t, "spaceweather.from_wdc", [&] {
      return spaceweather::from_wdc(dst_file->view(), &log, r.dst_path);
    });
    traced(t, "tle.add_from_text", [&] {
      return data->catalog.add_from_text(
          tle_file->view(), tle::IngestOptions{&log, r.threads, r.tle_path, nullptr});
    });
    t.count("tle.records", static_cast<double>(data->catalog.record_count()));
    const diag::DataQualityReport quality = log.report();
    auto snapshot = traced(t, "io.snapshot_copy", [&] {
      return std::make_shared<io::SnapshotData>(
          io::SnapshotData{data->dst, data->catalog, quality, {}, 0, 0});
    });
    snapshot->state = traced(t, "io.ingest_state", [&] {
      return io::ingest_state_of(dst_file->view(), tle_file->view());
    });
    save = std::async(std::launch::async, [snapshot, snapshot_path,
                                           threads = r.threads] {
      SaveResult result{Clock::now(), {}};
      io::save_snapshot(snapshot_path, *snapshot, diag::ParsePolicy::kStrict,
                        nullptr, threads);
      result.end = Clock::now();
      return result;
    });
    build_pipeline(t, *data, r.threads);
    traced(t, "io.unmap_inputs", [&] {
      dst_file.reset();
      tle_file.reset();
    });
  }
  export_figures(t, *data, r.threads, out_dir);
  const SaveResult saved = traced(t, "io.save_join_wait", [&] { return save.get(); });
  t.add_async("io.snapshot_save", saved.start, saved.end);
  traced(t, "run.teardown", [&] { data.reset(); });
}

/// Bytes of the snapshot a cold run left in `cache_dir`.
std::uint64_t snapshot_size(const std::string& cache_dir) {
  std::uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(cache_dir)) {
    if (entry.path().extension() == ".cdsnap") bytes += entry.file_size();
  }
  return bytes;
}

/// `cosmicdance analyze --cache-dir <filled>`: the exact-hit snapshot load.
void analyze_warm(Tracer& t, const Replay& r, const std::string& cache_dir,
                  const std::string& out_dir) {
  const Scope root(t, "analyze_warm");
  std::optional<Loaded> data(std::in_place);
  {
    traced(t, "io.out_dir", [&] { std::filesystem::create_directories(out_dir); });
    std::optional<io::MappedFile> dst_file;
    std::optional<io::MappedFile> tle_file;
    traced(t, "io.map_inputs", [&] {
      dst_file.emplace(r.dst_path);
      tle_file.emplace(r.tle_path);
    });
    auto snapshot = traced(t, "io.snapshot_load", [&] {
      return io::load_snapshot(
          io::snapshot_cache_path(cache_dir, r.dst_path, r.tle_path),
          diag::ParsePolicy::kStrict, nullptr, r.threads);
    });
    if (!snapshot) throw std::runtime_error("warm replay found no snapshot");
    const auto cls = traced(t, "io.classify_inputs", [&] {
      return io::classify_inputs(snapshot->state, dst_file->view(), tle_file->view());
    });
    if (cls.match != io::InputMatch::kExact || snapshot->tail_truncated) {
      throw std::runtime_error("warm replay did not take the exact-hit path");
    }
    t.count("io.snapshot_load_records",
            static_cast<double>(snapshot->catalog.record_count() + snapshot->dst.size()));
    data->dst = std::move(snapshot->dst);
    data->catalog = std::move(snapshot->catalog);
    traced(t, "io.snapshot_free", [&] { snapshot.reset(); });
    build_pipeline(t, *data, r.threads);
    traced(t, "io.unmap_inputs", [&] {
      dst_file.reset();
      tle_file.reset();
    });
  }
  export_figures(t, *data, r.threads, out_dir);
  traced(t, "run.teardown", [&] { data.reset(); });
}

/// Correlator work count for the three analyze scans (an untimed pass with
/// an observability registry attached to the correlator only).
double correlator_cells(const Replay& r, const std::string& cache_dir) {
  auto snapshot = io::load_snapshot(
      io::snapshot_cache_path(cache_dir, r.dst_path, r.tle_path),
      diag::ParsePolicy::kStrict, nullptr, r.threads);
  if (!snapshot) throw std::runtime_error("cell count found no snapshot");
  obs::Metrics metrics;
  core::CorrelatorConfig config;
  config.num_threads = r.threads;
  config.metrics = &metrics;
  auto tracks = core::clean_tracks(
      core::tracks_from_catalog(snapshot->catalog, r.threads, nullptr),
      config.cleaning, r.threads, nullptr);
  core::warm_median_caches(tracks, r.threads);
  const core::EventCorrelator correlator(&snapshot->dst, config);
  const double p80 = snapshot->dst.dst_threshold_at_percentile(80.0);
  const double p95 = snapshot->dst.dst_threshold_at_percentile(95.0);
  static_cast<void>(correlator.altitude_change_samples(
      tracks, correlator.quiet_epochs(p80, 30)));
  static_cast<void>(correlator.altitude_change_samples(
      tracks, correlator.storm_event_epochs(p95)));
  static_cast<void>(correlator.drag_change_samples(
      tracks, correlator.storm_event_epochs(p95)));
  return static_cast<double>(metrics.counter("correlator.cells").value());
}

// ---- simulate (cmd_simulate) ------------------------------------------------

/// Satellite-hours the launch plan schedules inside the window (launch to
/// window end; reentries end some earlier, so this is an upper bound).
double scheduled_sat_hours(const simulation::ConstellationConfig& config) {
  const double end_jd = timeutil::to_julian(config.end);
  double hours = 0.0;
  for (const auto& batch : config.launches) {
    const double launch_jd =
        std::max(timeutil::to_julian(batch.time), timeutil::to_julian(config.start));
    if (launch_jd < end_jd) hours += batch.count * (end_jd - launch_jd) * 24.0;
  }
  return hours;
}

void simulate(Tracer& t, const Replay& r, const std::string& out_path) {
  const Scope root(t, "simulate");
  std::optional<spaceweather::DstIndex> dst;
  {
    const auto dst_file = traced(t, "io.map_inputs",
                                 [&] { return io::MappedFile(r.dst_path); });
    dst = traced(t, "spaceweather.from_wdc",
                 [&] { return spaceweather::from_wdc(dst_file.view(), nullptr, r.dst_path); });
  }
  const auto config = simulation::scenario::paper_window(&*dst, r.per_batch, r.cadence_days, r.seed);
  t.count("simulation.sat_hours", scheduled_sat_hours(config));
  std::optional<simulation::SimulationResult> result = traced(
      t, "simulation.run", [&] { return simulation::ConstellationSimulator(config).run(); });
  std::optional<std::string> text =
      traced(t, "tle.to_text", [&] { return result->catalog.to_text(); });
  t.count("simulation.tles_emitted", static_cast<double>(result->catalog.record_count()));
  t.count("tle.to_text_bytes", static_cast<double>(text->size()));
  traced(t, "io.catalog_write", [&] { io::write_file(out_path, *text); });
  traced(t, "run.teardown", [&] {
    text.reset();
    result.reset();
    dst.reset();
  });
}

// ---- serve (cosmicdanced's Service, in process) ------------------------------

std::string op_of(const std::string& request) {
  const auto parsed = serve::parse_json(request);
  const serve::JsonValue* op = parsed ? parsed->find("op") : nullptr;
  if (op == nullptr || op->kind != serve::JsonValue::Kind::kString) {
    throw std::runtime_error("request without an op: " + request);
  }
  return op->text;
}

/// One Service over the same inputs and a filled cache, as cosmicdanced
/// builds it; each iteration sends every mix request once, then a reload.
void serve_mix(Tracer& t, const Replay& r, const std::string& cache_dir,
               const std::string& responses_path) {
  obs::Metrics metrics;
  core::PipelineConfig config;
  config.num_threads = r.threads;
  config.cache_dir = cache_dir;
  config.metrics = &metrics;
  auto rebuild = [&r, config] {
    return core::CosmicDance::from_files(r.dst_path, r.tle_path, config);
  };
  std::optional<serve::Service> service;
  {
    const Scope root(t, "serve_boot");
    service.emplace(traced(t, "serve.rebuild", rebuild), rebuild, &metrics);
  }
  std::vector<std::string> ops;
  for (const auto& request : r.requests) ops.push_back(op_of(request));

  std::ofstream responses(responses_path, std::ios::binary | std::ios::trunc);
  for (int rep = 0; rep < r.reps; ++rep) {
    const Scope root(t, "serve");
    for (std::size_t i = 0; i < r.requests.size(); ++i) {
      const std::string& request = r.requests[i];
      static_cast<void>(traced(t, "serve.parse_json",
                               [&] { return serve::parse_json(request); }));
      const serve::HandleResult result = traced(
          t, "serve.handle." + ops[i], [&] { return service->handle(request); });
      static_cast<void>(traced(t, "serve.encode_frame",
                               [&] { return serve::encode_frame(result.response); }));
      if (rep == 0) responses << result.response << "\n";
    }
    const serve::HandleResult reloaded = traced(
        t, "serve.rebuild", [&] { return service->handle(R"({"op":"reload"})"); });
    if (reloaded.response.find("\"ok\":true") == std::string::npos) {
      throw std::runtime_error("in-process reload failed: " + reloaded.response);
    }
  }
  if (!responses) throw std::runtime_error("cannot write " + responses_path);
}

// ---- commands ----------------------------------------------------------------

std::vector<std::string> read_requests(const std::string& path) {
  std::vector<std::string> requests;
  for (auto& line : io::read_lines(path)) {
    if (!line.empty()) requests.push_back(std::move(line));
  }
  if (requests.empty()) throw std::runtime_error("no requests in " + path);
  return requests;
}

std::string required(const io::ArgParser& args, const std::string& name) {
  const auto value = args.option(name);
  if (!value) throw std::runtime_error("missing --" + name);
  return *value;
}

int cmd_replay(const io::ArgParser& args) {
  args.check_known({"dst", "tles", "work", "requests", "seed", "per-batch",
                    "cadence", "threads", "reps", "phases", "spans-out"});
  Replay r;
  r.dst_path = required(args, "dst");
  r.tle_path = required(args, "tles");
  r.work = required(args, "work");
  r.requests = read_requests(required(args, "requests"));
  r.seed = static_cast<std::uint64_t>(args.integer_or("seed", 7));
  r.per_batch = static_cast<int>(args.nonnegative_integer_or("per-batch", 2));
  r.cadence_days = args.number_or("cadence", 30.0);
  r.threads = static_cast<int>(args.nonnegative_integer_or("threads", 0));
  r.reps = std::max(1, static_cast<int>(args.nonnegative_integer_or("reps", 1)));
  const std::string phases = "," + args.option_or("phases", "analyze,simulate,serve") + ",";
  auto wants = [&](const char* phase) {
    return phases.find("," + std::string(phase) + ",") != std::string::npos;
  };
  const std::string cache_dir = r.work + "/cache";
  std::filesystem::create_directories(r.work);

  Tracer tracer;
  if (wants("analyze")) {
    for (int i = 0; i < r.reps; ++i) {
      analyze_cold(tracer, r, cache_dir, r.work + "/analyze_cold");
    }
    tracer.count("io.snapshot_save_bytes", static_cast<double>(snapshot_size(cache_dir)));
    for (int i = 0; i < r.reps; ++i) {
      analyze_warm(tracer, r, cache_dir, r.work + "/analyze_warm");
    }
    tracer.count("core.correlator_cells", correlator_cells(r, cache_dir));
  }
  if (wants("simulate")) {
    for (int i = 0; i < r.reps; ++i) simulate(tracer, r, r.work + "/catalog.tle");
  }
  if (wants("serve")) serve_mix(tracer, r, cache_dir, r.work + "/responses.txt");
  io::write_file(required(args, "spans-out"), tracer.to_json());
  return 0;
}

/// Fixed CPU + memory kernel: xorshift fill of 16 MiB, a dependent
/// random-read chain (memory latency) and a sort of 512 Ki words (CPU).
std::uint64_t probe_kernel() {
  constexpr std::size_t kWords = std::size_t{1} << 22;
  std::vector<std::uint32_t> words(kWords);
  std::uint32_t x = 2463534242u;
  for (auto& w : words) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    w = x;
  }
  std::uint64_t sum = 0;
  std::uint32_t index = 0;
  for (int i = 0; i < (1 << 21); ++i) {
    index = words[index & (kWords - 1)];
    sum += index;
  }
  std::sort(words.begin(), words.begin() + (1 << 19));
  return sum + words[12345];
}

int cmd_probe(const io::ArgParser& args) {
  args.check_known({"reps"});
  const long reps = std::max(1L, args.nonnegative_integer_or("reps", 3));
  std::vector<double> ms;
  std::uint64_t checksum = 0;
  for (long i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    checksum = probe_kernel();
    ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - start).count());
  }
  std::sort(ms.begin(), ms.end());
  std::printf("{\"probe_ms\":%.6f,\"checksum\":%llu}\n", ms[ms.size() / 2],
              static_cast<unsigned long long>(checksum));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const io::ArgParser args(argc, argv);
    if (args.command() == "replay") return cmd_replay(args);
    if (args.command() == "probe") return cmd_probe(args);
    std::cerr << "usage: perftrace replay|probe [options]\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "perftrace: " << error.what() << "\n";
    return 1;
  }
}
