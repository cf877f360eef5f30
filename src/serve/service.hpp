// The cosmicdanced query service: an immutable, swapped-whole pipeline
// snapshot plus the request router that answers queries against it.
//
// Concurrency model (DESIGN.md §15): readers never wait on a rebuild.
// The entire queryable state — Dst series, catalog, cleaned tracks,
// correlator — lives inside one `core::CosmicDance` owned by an immutable
// ServeSnapshot behind a `std::shared_ptr<const ServeSnapshot>` slot.  The
// slot's mutex is held only to copy or replace that pointer, never across
// a rebuild or a response.  A request handler copies the pointer exactly
// once, builds its whole response from that object, and releases it; a
// concurrent reload builds the replacement pipeline entirely off to the
// side and then swaps the pointer in.  In-flight requests keep the old
// snapshot alive through their shared_ptr until the response is written,
// so a reader sees either the old epoch or the new one — never a mix.
// Every response carries the snapshot's epoch twice ("epoch" first,
// "epoch_end" last): equal values are the wire-visible proof that no swap
// tore the response.
//
// The pipeline's const surface is safe to share: track median caches are
// warmed eagerly by the CosmicDance constructor, correlator scans draw from
// the shared exec pool (a plain mutex-guarded task queue, safe to enter
// from many request threads at once), and everything else is pure reads.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "core/pipeline.hpp"

namespace cosmicdance::obs {
class Counter;
class Metrics;
}  // namespace cosmicdance::obs

namespace cosmicdance::serve {

/// One immutable serving epoch: the pipeline plus its epoch number.
struct ServeSnapshot {
  std::uint64_t epoch = 0;
  core::CosmicDance pipeline;

  ServeSnapshot(std::uint64_t epoch_number, core::CosmicDance built)
      : epoch(epoch_number), pipeline(std::move(built)) {}
};

/// What Service::handle tells the transport layer to do after responding.
struct HandleResult {
  std::string response;       ///< framed-payload JSON to send back
  bool shutdown = false;      ///< client asked the daemon to stop
};

/// The request router.  Thread-safe: handle() may be called concurrently
/// from any number of connection threads; reload() (also reachable via the
/// "reload" op) serialises rebuilds behind a mutex while readers keep
/// serving the old snapshot.
class Service {
 public:
  /// Rebuild callback for the "reload" op: produce a fresh pipeline (same
  /// inputs re-ingested — with a cache dir this is a warm snapshot load or
  /// a tail-only delta parse).  May throw; a throwing reload keeps the old
  /// snapshot and returns an error response.
  using Rebuild = std::function<core::CosmicDance()>;

  /// Takes the initial pipeline (becomes epoch 1).  `metrics` is optional
  /// and non-owning; when set, serve.requests / serve.errors / serve.reloads
  /// count every handled frame, error response and successful swap.
  Service(core::CosmicDance initial, Rebuild rebuild,
          obs::Metrics* metrics = nullptr);

  /// Current snapshot (never null).  Handlers call this exactly once.
  [[nodiscard]] std::shared_ptr<const ServeSnapshot> snapshot() const;

  /// Route one request payload (JSON text) to its handler and return the
  /// response payload.  Never throws: malformed JSON, unknown ops, bad
  /// parameters and failed reloads all produce {"ok":false,...} responses
  /// (counted in serve.errors).
  [[nodiscard]] HandleResult handle(std::string_view request);

  /// Rebuild + swap.  Returns the new epoch, or 0 when the rebuild threw
  /// (old snapshot stays).  Concurrent calls serialise.
  std::uint64_t reload();

 private:
  mutable std::mutex slot_mutex_;  ///< held only to copy or swap slot_
  std::shared_ptr<const ServeSnapshot> slot_;
  std::mutex reload_mutex_;  ///< serialises rebuilds; readers never take it
  Rebuild rebuild_;
  obs::Metrics* metrics_;
  obs::Counter* requests_ = nullptr;
  obs::Counter* errors_ = nullptr;
  obs::Counter* reloads_ = nullptr;
};

}  // namespace cosmicdance::serve
