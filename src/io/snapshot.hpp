// Binary catalog snapshot cache with append-aware delta layers (the warm-
// start half of the zero-copy ingestion work).
//
// Parsing the text archives dominates pipeline start-up, yet between runs
// the inputs rarely change — and when they do change, real TLE/Dst feeds
// are append-heavy: the same prefix plus N new bytes at the end.  A
// snapshot serialises the *parsed* artefacts — the Dst series, the TLE
// catalog and the ingestion DataQualityReport — keyed by the inputs' byte
// lengths and 64-bit content digests (content_digest below):
//
//   * A warm run whose inputs match exactly loads the snapshot and skips
//     text parsing entirely (the PR 5 fast path).
//   * A warm run whose inputs are an unchanged prefix plus appended bytes
//     parses only the tail and persists the newly parsed artefacts as a
//     *delta layer* appended to the snapshot file, chain-hashed to the
//     layer before it.  Once the chain reaches kMaxSnapshotDeltaLayers the
//     next append compacts everything back into a single base.
//   * Any other disagreement (shrunk or edited inputs, format version,
//     parse policy, truncation, a checksum, a broken layer chain) makes the
//     loader/caller silently fall back to the text path and rewrite a
//     fresh base.  See DESIGN.md §14 for the format and the reasoning.
//
// Every checksum below is the 64-bit content_digest of the bytes it
// covers, the same function as the identity key.
//
// Layout: a fixed 44-byte base header
//   bytes  0-7   magic "CDSNAPv1"
//   bytes  8-11  format version (u32)
//   byte   12    parse policy (0 strict, 1 tolerant)
//   bytes 13-15  zero padding
//   bytes 16-23  content digest of the raw inputs (u64, dst chained into
//                tle — the same combined hash IngestState carries)
//   bytes 24-31  base payload size in bytes (u64)
//   bytes 32-39  checksum of the section table (u64)
//   bytes 40-43  section count (u32)
// followed by the base payload: a *section table* followed by the section
// bytes, so a loader can validate and deserialise sections independently
// (in parallel) and size its containers up front:
//   table:   section count × 28-byte entries
//              u32 kind (1 state, 2 Dst, 3 catalog stripe, 4 quality)
//              u64 checksum of the section's bytes
//              u64 offset (relative to the end of the table)
//              u64 length in bytes
//            Entries must tile the post-table payload contiguously in
//            order (offset == sum of prior lengths) — anything else
//            (overlap, gap, out-of-bounds) rejects the snapshot.
//   kinds:   exactly one state section first, one Dst section second, any
//            number of catalog stripes (whole satellites each, stripe
//            boundaries fixed at encode time so the bytes are independent
//            of writer thread count), and one quality section last.
// Zero or more delta layers follow the base payload, each a 40-byte layer
// header
//   bytes  0-7   magic "CDDELTA1"
//   bytes  8-11  1-based layer index (u32)
//   byte   12    parse policy
//   bytes 13-15  zero padding
//   bytes 16-23  chain hash: content digest of the previous layer's header
//                bytes (the base header for layer 1) — out-of-order,
//                missing or spliced layers break the chain and reject the
//                snapshot
//   bytes 24-31  layer payload size in bytes (u64)
//   bytes 32-39  checksum of the layer payload (u64)
// followed by that layer's payload.  All integers little-endian; doubles
// are stored as their IEEE-754 bit patterns so reload is bit-exact.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "diag/diag.hpp"
#include "spaceweather/dst_index.hpp"
#include "tle/catalog.hpp"

namespace cosmicdance::obs {
class Metrics;
}  // namespace cosmicdance::obs

namespace cosmicdance::io {

/// Bumped on any change to the payload encoding or to the digest; a
/// version mismatch is a silent reject-and-reparse, never a migration.
/// v2 added the ingest state record and delta layers, v3 the section-table
/// payload (DESIGN.md §14, §18), v4 the XXH64 content digest in place of
/// FNV-1a, v5 that digest in every checksum field in place of CRC32C.
inline constexpr std::uint32_t kSnapshotFormatVersion = 5;

/// Delta layers allowed on a base before the next append compacts the
/// whole chain back into a single base.  Small on purpose: every layer is
/// one more header walk + checksum on load, and compaction writes are already
/// amortised against a full text parse.
inline constexpr std::uint32_t kMaxSnapshotDeltaLayers = 4;

/// 64-bit content digest of `bytes` (the XXH64 algorithm: four independent
/// lanes over 32-byte stripes, little-endian word reads, so the value is
/// the same on every host).  Seeding with one buffer's digest chains
/// several buffers into one identity, which is how the Dst digest keys the
/// TLE digest and how the prefix checks for appends reuse a recorded
/// seed.  It is the cache's *identity* key (a false exact hit would
/// silently serve stale data, so it is 64 bits wide) and also its
/// integrity check: it seals the section table, each section and each
/// delta layer.
[[nodiscard]] std::uint64_t content_digest(std::string_view bytes,
                                           std::uint64_t seed = 0);

/// What a snapshot knows about the raw input pair it was built from —
/// enough to recognise the exact same bytes (lengths + hashes), to
/// recognise an append (prefix hashes + the boundary flags below), and to
/// resume parsing at the right place (line counts offset tail
/// diagnostics so they cite absolute line numbers).
struct IngestState {
  std::uint64_t dst_len = 0;    ///< Dst input size in bytes
  std::uint64_t dst_hash = 0;   ///< content_digest of the Dst bytes
  std::uint64_t dst_lines = 0;  ///< newline count in the Dst input
  std::uint64_t tle_len = 0;    ///< TLE input size in bytes
  std::uint64_t tle_lines = 0;  ///< newline count in the TLE input
  /// content_digest of the TLE bytes seeded with dst_hash — the combined
  /// content hash of the pair (and the value in the base header).
  std::uint64_t combined_hash = 0;
  /// True when the input is empty or ends in '\n'.  A file that ends
  /// mid-line can have that line's meaning rewritten by an append, so
  /// growth past an unterminated prefix must reparse from scratch.
  bool dst_line_terminated = true;
  bool tle_line_terminated = true;
  /// True when the TLE pairing scanner ends with no line 1 pending (see
  /// tle::append_boundary_clean): a dangling line 1 was already reported
  /// against the prefix, and an append could pair it retroactively, so
  /// growth past an unclean boundary must reparse from scratch.
  bool tle_boundary_clean = true;

  bool operator==(const IngestState&) const = default;
};

/// Compute the full IngestState of an input pair.
[[nodiscard]] IngestState ingest_state_of(std::string_view dst_bytes,
                                          std::string_view tle_bytes);

/// How the current inputs relate to the pair a snapshot was built from.
enum class InputMatch {
  kExact,     ///< byte-identical pair: plain cache hit
  kAppend,    ///< unchanged prefix plus appended bytes: delta-parse the tail
  kMismatch,  ///< anything else: reject and reparse from scratch
};

struct InputClassification {
  InputMatch match = InputMatch::kMismatch;
  /// State of the *current* inputs (what the next base/delta records):
  /// `base` itself on kExact, the grown state on kAppend, unset on
  /// kMismatch (the caller reparses and computes it from scratch).
  IngestState current;
};

/// Classify the current inputs against a snapshot's recorded state.
/// Lengths are compared first, so a shrunk input costs no hashing.  kExact
/// needs equal lengths and both digests equal.  kAppend requires every
/// grown input to have a line-terminated (and, for TLE, pairing-clean)
/// recorded prefix whose bytes digest identically; the grown state then
/// extends the recorded one, counting lines in the appended tails only.
[[nodiscard]] InputClassification classify_inputs(const IngestState& base,
                                                  std::string_view dst_bytes,
                                                  std::string_view tle_bytes);

/// Everything a warm start needs: the two parsed datasets plus the quality
/// report the text parse would have produced (so cache-hit runs report the
/// same ingestion outcome as cache-miss runs), the recorded input state,
/// and where the delta chain currently ends.
struct SnapshotData {
  spaceweather::DstIndex dst;
  tle::TleCatalog catalog;
  diag::DataQualityReport quality;
  IngestState state;
  /// Delta layers applied on top of the base (0 for a fresh base).
  std::uint32_t delta_layers = 0;
  /// content_digest of the last layer's (or base's) header bytes — what
  /// the next appended layer must carry as its chain hash.
  std::uint64_t chain_hash = 0;
  /// True when the file ended mid-layer (a torn append: partial trailing
  /// header, short payload, or a checksum-failing *final* layer) and the torn
  /// tail was dropped.  `state` then describes only the recovered prefix —
  /// the caller must treat the snapshot as behind the text inputs and must
  /// not append further layers to the file (they would sit after torn
  /// bytes the next load cannot walk past).
  bool tail_truncated = false;
};

/// The parsed artefacts of one tail parse, exactly what replaying the
/// append needs: the Dst values pushed (including any interpolated
/// repairs), every catalog record committed in file order, and the tail's
/// own quality report to merge into the cumulative one.
struct SnapshotDelta {
  IngestState state;  ///< cumulative input state *after* this layer
  std::uint64_t dst_prior_size = 0;  ///< Dst sample count before the append
  std::int64_t dst_start_hour = 0;   ///< series start hour after the append
  std::vector<double> dst_appended;
  std::vector<tle::Tle> tle_committed;
  diag::DataQualityReport quality_delta;
};

/// Snapshot file path for an input pair.  The name hashes the *paths* (not
/// the contents), so the same inputs map to a stable file whose stored
/// ingest state then decides hit/append/reject — editing an input is
/// detected as a stale snapshot at load time, not silently shadowed by a
/// new file.
[[nodiscard]] std::string snapshot_cache_path(const std::string& cache_dir,
                                              const std::string& dst_path,
                                              const std::string& tle_path);

/// Serialise a base snapshot (header + section table + sections, no delta
/// layers).  Sections are encoded into
/// independent buffers over `num_threads` workers (the exec convention:
/// 0 = all hardware threads, 1 = serial); stripe boundaries are a pure
/// function of the catalog, so the bytes are identical at any value.
[[nodiscard]] std::string encode_snapshot(const SnapshotData& data,
                                          diag::ParsePolicy policy,
                                          int num_threads = 1);

/// Serialise one delta layer (header + payload) for appending to a file
/// whose last layer hashed to `prev_chain_hash`.
[[nodiscard]] std::string encode_snapshot_delta(const SnapshotDelta& delta,
                                                std::uint32_t layer_index,
                                                std::uint64_t prev_chain_hash,
                                                diag::ParsePolicy policy);

/// Parse snapshot bytes: the base plus every delta layer, applied in
/// order.  Returns nullopt — never throws — when anything disagrees:
/// magic, version, policy, payload sizes, checksums, the layer chain, or a
/// payload that decodes inconsistently.
///
/// One deliberate exception to all-or-nothing: a torn *trailing* layer —
/// the signature a crashed append leaves behind (file ends mid-header,
/// mid-payload, or with a checksum-failing final layer) — truncates to the
/// valid base + layer prefix and sets `tail_truncated` instead of
/// rejecting.  Everything a torn append can produce is a pure prefix of
/// valid bytes, so the recovered prefix is exactly the pre-append
/// snapshot.  Corruption *inside* the prefix (bad mid-chain checksum, wrong
/// index/policy/chain hash with a complete header) still rejects the
/// whole file: that is bit rot or tampering, not a crash signature, and
/// the text source of truth is always available.
[[nodiscard]] std::optional<SnapshotData> decode_snapshot(
    std::string_view bytes, diag::ParsePolicy policy, int num_threads = 1);

/// Load a snapshot file.  A missing/unreadable file is a cache miss
/// (nullopt, no counter); a present-but-invalid file bumps
/// `snapshot.rejected` and also returns nullopt.  A torn trailing layer
/// (see decode_snapshot) loads the valid prefix and bumps
/// `snapshot.delta_truncated`.  Whether a structurally valid snapshot
/// matches the current inputs is the caller's decision (classify_inputs)
/// — the caller bumps `snapshot.loaded` only when it actually uses the
/// data.  A successful load adds the materialised record count to
/// `snapshot.load_records` (the warm-throughput numerator) and the
/// section count to the scheduling counter `snapshot.load_sections`.
/// Sections are validated and deserialised over `num_threads` workers;
/// results are bit-identical at any value.  Wall time lands in phase
/// "snapshot.load".
[[nodiscard]] std::optional<SnapshotData> load_snapshot(
    const std::string& path, diag::ParsePolicy policy,
    obs::Metrics* metrics = nullptr, int num_threads = 1);

/// Write a base snapshot file, discarding any existing delta chain
/// (atomically: per-writer temp file + rename, creating the cache
/// directory if needed).  The temp name embeds the pid and a process-wide
/// serial, so concurrent writers — several processes or threads sharing a
/// cache dir — never interleave writes into one temp file; the final
/// rename is atomic, so the last writer wins with a complete file.
/// Best-effort: returns false and bumps `snapshot.write_failed` on any
/// filesystem error instead of throwing — a read-only cache dir must not
/// break the pipeline.  Success bumps `snapshot.written` and adds the
/// file size to `snapshot.save_bytes`; the encoded bytes are committed
/// with one buffered write.  Sections are serialised over `num_threads`
/// workers (bytes identical at any value).  Wall time lands in phase
/// "snapshot.save".
bool save_snapshot(const std::string& path, const SnapshotData& data,
                   diag::ParsePolicy policy, obs::Metrics* metrics = nullptr,
                   int num_threads = 1);

/// Append one delta layer to an existing snapshot file.  Best-effort like
/// save_snapshot (failure bumps `snapshot.write_failed`); success bumps
/// `snapshot.delta_written`.  A torn append is caught by the next load's
/// size/checksum checks and falls back to a full reparse.  Wall time lands in
/// phase "snapshot.save".
bool append_snapshot_delta(const std::string& path, const SnapshotDelta& delta,
                           std::uint32_t layer_index,
                           std::uint64_t prev_chain_hash,
                           diag::ParsePolicy policy,
                           obs::Metrics* metrics = nullptr);

}  // namespace cosmicdance::io
