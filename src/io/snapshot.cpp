#include "io/snapshot.hpp"

#include <unistd.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "exec/parallel_for.hpp"
#include "io/file.hpp"
#include "obs/obs.hpp"
#include "tle/tle.hpp"

namespace cosmicdance::io {
namespace {

constexpr char kMagic[8] = {'C', 'D', 'S', 'N', 'A', 'P', 'v', '1'};
constexpr char kDeltaMagic[8] = {'C', 'D', 'D', 'E', 'L', 'T', 'A', '1'};
constexpr std::size_t kBaseHeaderSize = 44;
constexpr std::size_t kLayerHeaderSize = 40;
constexpr std::size_t kSectionCountOffset = 40;

// ---- section layout (see snapshot.hpp for the format doc) -------------------

constexpr std::uint32_t kSectionState = 1;
constexpr std::uint32_t kSectionDst = 2;
constexpr std::uint32_t kSectionCatalogStripe = 3;
constexpr std::uint32_t kSectionQuality = 4;
constexpr std::size_t kSectionEntrySize = 28;

/// Records per catalog stripe (whole satellites each).  Only the catalog's
/// contents pick the boundaries, so encode output is thread-count-
/// invariant; the value balances per-section checksum/decode parallelism
/// against table overhead.
constexpr std::size_t kStripeTargetRecords = 16384;

struct SectionEntry {
  std::uint32_t kind = 0;
  std::uint64_t digest = 0;
  std::uint64_t offset = 0;  // relative to the end of the section table
  std::uint64_t length = 0;
};

constexpr std::uint8_t kFlagDstLineTerminated = 1u << 0;
constexpr std::uint8_t kFlagTleLineTerminated = 1u << 1;
constexpr std::uint8_t kFlagTleBoundaryClean = 1u << 2;
constexpr std::uint8_t kFlagMask = kFlagDstLineTerminated |
                                   kFlagTleLineTerminated |
                                   kFlagTleBoundaryClean;

// ---- little-endian writer ---------------------------------------------------

constexpr bool kLittleEndianHost = std::endian::native == std::endian::little;

/// Little-endian word loads from unaligned bytes — the one place the file
/// format's byte order meets the host's.
std::uint32_t load_le32(const char* p) {
  std::uint32_t v = 0;
  if constexpr (kLittleEndianHost) {
    std::memcpy(&v, p, 4);
  } else {
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
           << (8 * i);
    }
  }
  return v;
}

std::uint64_t load_le64(const char* p) {
  std::uint64_t v = 0;
  if constexpr (kLittleEndianHost) {
    std::memcpy(&v, p, 8);
  } else {
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
           << (8 * i);
    }
  }
  return v;
}

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  if constexpr (kLittleEndianHost) {
    out.append(reinterpret_cast<const char*>(&v), 4);
  } else {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
    }
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  if constexpr (kLittleEndianHost) {
    out.append(reinterpret_cast<const char*>(&v), 8);
  } else {
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
    }
  }
}

void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_i32(std::string& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_string(std::string& out, std::string_view v) {
  put_u32(out, static_cast<std::uint32_t>(v.size()));
  out.append(v);
}

// ---- bounds-checked little-endian reader ------------------------------------

class Cursor {
 public:
  explicit Cursor(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] bool exhausted() const noexcept { return pos_ == bytes_.size(); }

  std::uint8_t u8() {
    return static_cast<std::uint8_t>(static_cast<unsigned char>(view(1)[0]));
  }

  std::uint32_t u32() { return load_le32(view(4).data()); }
  std::uint64_t u64() { return load_le64(view(8).data()); }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }

  std::string str() {
    const std::uint32_t length = u32();
    const std::string_view raw = view(length);
    return std::string(raw);
  }

  std::string_view view(std::size_t length) {
    if (length > bytes_.size() - pos_) {
      throw ParseError("snapshot payload truncated");
    }
    const std::string_view out = bytes_.substr(pos_, length);
    pos_ += length;
    return out;
  }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

// ---- payload encoding -------------------------------------------------------

std::uint8_t policy_byte(diag::ParsePolicy policy) {
  return policy == diag::ParsePolicy::kTolerant ? 1 : 0;
}

void encode_state(std::string& out, const IngestState& state) {
  put_u64(out, state.dst_len);
  put_u64(out, state.dst_hash);
  put_u64(out, state.dst_lines);
  put_u64(out, state.tle_len);
  put_u64(out, state.tle_lines);
  put_u64(out, state.combined_hash);
  std::uint8_t flags = 0;
  if (state.dst_line_terminated) flags |= kFlagDstLineTerminated;
  if (state.tle_line_terminated) flags |= kFlagTleLineTerminated;
  if (state.tle_boundary_clean) flags |= kFlagTleBoundaryClean;
  put_u8(out, flags);
}

IngestState decode_state(Cursor& in) {
  IngestState state;
  state.dst_len = in.u64();
  state.dst_hash = in.u64();
  state.dst_lines = in.u64();
  state.tle_len = in.u64();
  state.tle_lines = in.u64();
  state.combined_hash = in.u64();
  const std::uint8_t flags = in.u8();
  if ((flags & ~kFlagMask) != 0) {
    throw ParseError("snapshot carries unknown ingest-state flags");
  }
  state.dst_line_terminated = (flags & kFlagDstLineTerminated) != 0;
  state.tle_line_terminated = (flags & kFlagTleLineTerminated) != 0;
  state.tle_boundary_clean = (flags & kFlagTleBoundaryClean) != 0;
  return state;
}

void encode_dst(std::string& out, const spaceweather::DstIndex& dst) {
  put_i64(out, dst.start_hour());
  put_u64(out, dst.size());
  // Doubles are stored as their IEEE bit patterns little-endian, which on
  // a little-endian host is exactly the in-memory layout — one append.
  if constexpr (kLittleEndianHost) {
    out.append(reinterpret_cast<const char*>(dst.values().data()),
               dst.size() * 8);
  } else {
    for (const double v : dst.values()) put_f64(out, v);
  }
}

spaceweather::DstIndex decode_dst(Cursor& in) {
  const std::int64_t start = in.i64();
  const std::uint64_t count = in.u64();
  if (count == 0) return {};
  std::vector<double> values;
  if constexpr (kLittleEndianHost) {
    const std::string_view raw = in.view(count * 8);
    values.resize(count);
    std::memcpy(values.data(), raw.data(), raw.size());
  } else {
    values.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) values.push_back(in.f64());
  }
  return spaceweather::DstIndex(start, std::move(values));
}

void encode_tle(std::string& out, const tle::Tle& t) {
  put_i32(out, t.catalog_number);
  put_u8(out, static_cast<std::uint8_t>(t.classification));
  put_string(out, t.international_designator);
  put_f64(out, t.epoch_jd);
  put_f64(out, t.mean_motion_dot);
  put_f64(out, t.mean_motion_ddot);
  put_f64(out, t.bstar);
  put_i32(out, t.ephemeris_type);
  put_i32(out, t.element_set_number);
  put_f64(out, t.inclination_deg);
  put_f64(out, t.raan_deg);
  put_f64(out, t.eccentricity);
  put_f64(out, t.arg_perigee_deg);
  put_f64(out, t.mean_anomaly_deg);
  put_f64(out, t.mean_motion_revday);
  put_i32(out, t.rev_number);
}

tle::Tle decode_tle(Cursor& in) {
  tle::Tle t;
  t.catalog_number = in.i32();
  t.classification = static_cast<char>(in.u8());
  t.international_designator = in.str();
  t.epoch_jd = in.f64();
  t.mean_motion_dot = in.f64();
  t.mean_motion_ddot = in.f64();
  t.bstar = in.f64();
  t.ephemeris_type = in.i32();
  t.element_set_number = in.i32();
  t.inclination_deg = in.f64();
  t.raan_deg = in.f64();
  t.eccentricity = in.f64();
  t.arg_perigee_deg = in.f64();
  t.mean_anomaly_deg = in.f64();
  t.mean_motion_revday = in.f64();
  t.rev_number = in.i32();
  return t;
}

void encode_quality(std::string& out, const diag::DataQualityReport& report) {
  put_u8(out, policy_byte(report.policy));
  put_u64(out, report.stages.size());
  for (const auto& [stage, counters] : report.stages) {
    put_string(out, stage);
    put_u64(out, counters.accepted);
    put_u64(out, counters.repaired);
    put_u32(out, static_cast<std::uint32_t>(counters.quarantined.size()));
    for (const std::size_t q : counters.quarantined) put_u64(out, q);
  }
  put_u64(out, report.quarantined.size());
  for (const diag::QuarantinedRecord& record : report.quarantined) {
    put_string(out, record.stage);
    put_string(out, record.source);
    put_u64(out, record.line);
    put_u8(out, static_cast<std::uint8_t>(record.category));
    put_string(out, record.message);
    put_string(out, record.snippet);
  }
}

diag::ErrorCategory decode_category(Cursor& in) {
  const std::uint8_t raw = in.u8();
  if (raw >= static_cast<std::uint8_t>(kErrorCategoryCount)) {
    throw ParseError("snapshot carries unknown error category");
  }
  return static_cast<diag::ErrorCategory>(raw);
}

diag::DataQualityReport decode_quality(Cursor& in) {
  diag::DataQualityReport report;
  const std::uint8_t policy = in.u8();
  if (policy > 1) throw ParseError("snapshot carries unknown parse policy");
  report.policy = policy == 1 ? diag::ParsePolicy::kTolerant
                              : diag::ParsePolicy::kStrict;
  const std::uint64_t stage_count = in.u64();
  for (std::uint64_t i = 0; i < stage_count; ++i) {
    std::string stage = in.str();
    diag::StageCounters counters;
    counters.accepted = in.u64();
    counters.repaired = in.u64();
    const std::uint32_t categories = in.u32();
    if (categories != counters.quarantined.size()) {
      throw ParseError("snapshot category-count mismatch");
    }
    for (std::size_t c = 0; c < counters.quarantined.size(); ++c) {
      counters.quarantined[c] = in.u64();
    }
    report.stages.emplace(std::move(stage), counters);
  }
  const std::uint64_t quarantined_count = in.u64();
  for (std::uint64_t i = 0; i < quarantined_count; ++i) {
    diag::QuarantinedRecord record;
    record.stage = in.str();
    record.source = in.str();
    record.line = in.u64();
    record.category = decode_category(in);
    record.message = in.str();
    record.snippet = in.str();
    report.quarantined.push_back(std::move(record));
  }
  return report;
}

std::string encode_delta_payload(const SnapshotDelta& delta) {
  std::string payload;
  payload.reserve(96 + delta.dst_appended.size() * 8 +
                  delta.tle_committed.size() * 130);
  encode_state(payload, delta.state);
  put_u64(payload, delta.dst_prior_size);
  put_i64(payload, delta.dst_start_hour);
  put_u64(payload, delta.dst_appended.size());
  for (const double v : delta.dst_appended) put_f64(payload, v);
  put_u64(payload, delta.tle_committed.size());
  for (const tle::Tle& t : delta.tle_committed) encode_tle(payload, t);
  encode_quality(payload, delta.quality_delta);
  return payload;
}

// Apply one decoded layer payload onto the cumulative snapshot.  Throws
// ParseError on any inconsistency between what the layer claims about the
// state it extends and what the snapshot actually holds.
void apply_delta_payload(Cursor& in, SnapshotData& data,
                         diag::ParsePolicy policy) {
  const IngestState next = decode_state(in);
  if (next.dst_len < data.state.dst_len || next.tle_len < data.state.tle_len) {
    throw ParseError("snapshot delta layer shrinks its inputs");
  }
  const std::uint64_t dst_prior = in.u64();
  const std::int64_t dst_start = in.i64();
  if (dst_prior != data.dst.size()) {
    throw ParseError("snapshot delta layer extends the wrong Dst series");
  }
  const std::uint64_t dst_count = in.u64();
  if (data.dst.empty() && dst_count > 0) {
    std::vector<double> values;
    values.reserve(dst_count);
    for (std::uint64_t i = 0; i < dst_count; ++i) values.push_back(in.f64());
    data.dst = spaceweather::DstIndex(dst_start, std::move(values));
  } else {
    if (dst_count > 0 && dst_start != data.dst.start_hour()) {
      throw ParseError("snapshot delta layer moves the Dst anchor");
    }
    for (std::uint64_t i = 0; i < dst_count; ++i) data.dst.push_back(in.f64());
  }
  const std::uint64_t tle_count = in.u64();
  for (std::uint64_t i = 0; i < tle_count; ++i) {
    // Layers record only records the tail parse actually committed, so a
    // replayed add() must succeed; a collision means the layer does not
    // belong to this base.
    if (!data.catalog.add(decode_tle(in))) {
      throw ParseError("snapshot delta record collided on replay");
    }
  }
  const diag::DataQualityReport quality_delta = decode_quality(in);
  if (quality_delta.policy != policy) {
    throw ParseError("snapshot delta layer parsed under a different policy");
  }
  data.quality.merge(quality_delta);
  data.state = next;
}

// ---- content digest (XXH64) -------------------------------------------------

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

std::uint64_t digest_round(std::uint64_t acc, std::uint64_t input) {
  acc += input * kPrime2;
  return std::rotl(acc, 31) * kPrime1;
}

std::uint64_t digest_merge(std::uint64_t hash, std::uint64_t lane) {
  hash ^= digest_round(0, lane);
  return hash * kPrime1 + kPrime4;
}

/// Newlines in `bytes`.  memchr is vectorised in libc; std::count over
/// chars is not at -O2, and this runs over every input byte on every
/// cold run and append.
std::uint64_t count_newlines(std::string_view bytes) {
  std::uint64_t lines = 0;
  const char* p = bytes.data();
  const char* const end = p + bytes.size();
  while (p != end) {
    const void* hit = std::memchr(p, '\n', static_cast<std::size_t>(end - p));
    if (hit == nullptr) break;
    ++lines;
    p = static_cast<const char*>(hit) + 1;
  }
  return lines;
}

}  // namespace

std::uint64_t content_digest(std::string_view bytes, std::uint64_t seed) {
  const char* p = bytes.data();
  const char* const end = p + bytes.size();
  std::uint64_t hash = seed + kPrime5;  // inputs under one stripe
  if (bytes.size() >= 32) {
    // Four independent lanes, one 8-byte word each per 32-byte stripe: the
    // multiplies pipeline instead of serialising on one accumulator.
    std::uint64_t v1 = seed + kPrime1 + kPrime2;
    std::uint64_t v2 = seed + kPrime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kPrime1;
    const char* const last_stripe = end - 32;
    do {
      v1 = digest_round(v1, load_le64(p));
      v2 = digest_round(v2, load_le64(p + 8));
      v3 = digest_round(v3, load_le64(p + 16));
      v4 = digest_round(v4, load_le64(p + 24));
      p += 32;
    } while (p <= last_stripe);
    hash = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
           std::rotl(v4, 18);
    hash = digest_merge(hash, v1);
    hash = digest_merge(hash, v2);
    hash = digest_merge(hash, v3);
    hash = digest_merge(hash, v4);
  }
  hash += bytes.size();
  for (; end - p >= 8; p += 8) {
    hash ^= digest_round(0, load_le64(p));
    hash = std::rotl(hash, 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    hash ^= static_cast<std::uint64_t>(load_le32(p)) * kPrime1;
    hash = std::rotl(hash, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p != end; ++p) {
    hash ^= static_cast<unsigned char>(*p) * kPrime5;
    hash = std::rotl(hash, 11) * kPrime1;
  }
  // Final avalanche: every input bit reaches every output bit.
  hash ^= hash >> 33;
  hash *= kPrime2;
  hash ^= hash >> 29;
  hash *= kPrime3;
  hash ^= hash >> 32;
  return hash;
}

IngestState ingest_state_of(std::string_view dst_bytes,
                            std::string_view tle_bytes) {
  IngestState state;
  state.dst_len = dst_bytes.size();
  state.dst_hash = content_digest(dst_bytes);
  state.dst_lines = count_newlines(dst_bytes);
  state.tle_len = tle_bytes.size();
  state.tle_lines = count_newlines(tle_bytes);
  state.combined_hash = content_digest(tle_bytes, state.dst_hash);
  state.dst_line_terminated = dst_bytes.empty() || dst_bytes.back() == '\n';
  state.tle_line_terminated = tle_bytes.empty() || tle_bytes.back() == '\n';
  state.tle_boundary_clean = tle::append_boundary_clean(tle_bytes);
  return state;
}

InputClassification classify_inputs(const IngestState& base,
                                    std::string_view dst_bytes,
                                    std::string_view tle_bytes) {
  InputClassification out;
  // Lengths first: a shrunk input is neither exact nor an append, and
  // costs no hashing.
  if (dst_bytes.size() < base.dst_len || tle_bytes.size() < base.tle_len) {
    return out;
  }
  const bool dst_grew = dst_bytes.size() > base.dst_len;
  const bool tle_grew = tle_bytes.size() > base.tle_len;
  // Every grown file's recorded boundary must be safe to extend (line-
  // terminated; for TLE also pairing-clean, so an appended line 2 cannot
  // retroactively pair with a prefix line 1).
  if (dst_grew && !base.dst_line_terminated) return out;
  if (tle_grew && !(base.tle_line_terminated && base.tle_boundary_clean)) {
    return out;
  }
  // The recorded prefixes (the whole files, when nothing grew) must digest
  // identically.  The recorded combined hash chains the TLE prefix onto
  // the *recorded* Dst hash, so the TLE check reuses that seed even when
  // Dst grew.
  if (content_digest(dst_bytes.substr(0, base.dst_len)) != base.dst_hash) {
    return out;
  }
  if (content_digest(tle_bytes.substr(0, base.tle_len), base.dst_hash) !=
      base.combined_hash) {
    return out;
  }
  out.current = base;
  if (!dst_grew && !tle_grew) {
    out.match = InputMatch::kExact;
    return out;
  }
  // Append: extend the recorded state, counting lines in the tails only.
  IngestState& cur = out.current;
  if (dst_grew) {
    cur.dst_len = dst_bytes.size();
    cur.dst_hash = content_digest(dst_bytes);
    cur.dst_lines += count_newlines(dst_bytes.substr(base.dst_len));
    cur.dst_line_terminated = dst_bytes.back() == '\n';
  }
  if (tle_grew) {
    cur.tle_len = tle_bytes.size();
    cur.tle_lines += count_newlines(tle_bytes.substr(base.tle_len));
    cur.tle_line_terminated = tle_bytes.back() == '\n';
    cur.tle_boundary_clean = tle::append_boundary_clean(tle_bytes);
  }
  cur.combined_hash = content_digest(tle_bytes, cur.dst_hash);
  out.match = InputMatch::kAppend;
  return out;
}

std::string snapshot_cache_path(const std::string& cache_dir,
                                const std::string& dst_path,
                                const std::string& tle_path) {
  std::uint64_t hash = content_digest(dst_path);
  hash = content_digest("|", hash);
  hash = content_digest(tle_path, hash);
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx.cdsnap",
                static_cast<unsigned long long>(hash));
  return (std::filesystem::path(cache_dir) / name).string();
}

std::string encode_snapshot(const SnapshotData& data, diag::ParsePolicy policy,
                            int num_threads) {
  // Stripe plan: whole satellites, cut when the running record count
  // reaches the target.  A pure function of the catalog — never of thread
  // count — so the encoded bytes are identical at any worker count.
  const std::vector<int> sats = data.catalog.satellites();
  std::vector<std::pair<std::size_t, std::size_t>> stripes;  // [begin,end) in sats
  {
    std::size_t begin = 0;
    std::size_t records = 0;
    for (std::size_t i = 0; i < sats.size(); ++i) {
      records += data.catalog.history(sats[i]).size();
      if (records >= kStripeTargetRecords) {
        stripes.emplace_back(begin, i + 1);
        begin = i + 1;
        records = 0;
      }
    }
    if (begin < sats.size()) stripes.emplace_back(begin, sats.size());
  }
  const std::size_t section_count = 3 + stripes.size();
  const auto kind_of = [&](std::size_t i) -> std::uint32_t {
    if (i == 0) return kSectionState;
    if (i == 1) return kSectionDst;
    if (i + 1 < section_count) return kSectionCatalogStripe;
    return kSectionQuality;
  };

  // Each section serialises (and digests) into its own buffer,
  // independently.
  struct EncodedSection {
    std::string bytes;
    std::uint64_t digest = 0;
  };
  const std::vector<EncodedSection> sections =
      exec::ordered_map<EncodedSection>(
          section_count, num_threads,
          [&](std::size_t i) {
            EncodedSection section;
            std::string& payload = section.bytes;
            switch (kind_of(i)) {
              case kSectionState:
                encode_state(payload, data.state);
                break;
              case kSectionDst:
                payload.reserve(24 + data.dst.size() * 8);
                encode_dst(payload, data.dst);
                break;
              case kSectionCatalogStripe: {
                const auto [begin, end] = stripes[i - 2];
                std::size_t records = 0;
                for (std::size_t s = begin; s < end; ++s) {
                  records += data.catalog.history(sats[s]).size();
                }
                payload.reserve(8 + (end - begin) * 12 + records * 130);
                put_u64(payload, end - begin);
                for (std::size_t s = begin; s < end; ++s) {
                  const std::span<const tle::Tle> history =
                      data.catalog.history(sats[s]);
                  put_i32(payload, sats[s]);
                  put_u64(payload, history.size());
                  for (const tle::Tle& t : history) encode_tle(payload, t);
                }
                break;
              }
              default:
                encode_quality(payload, data.quality);
                break;
            }
            section.digest = content_digest(payload);
            return section;
          },
          nullptr);

  std::string table;
  table.reserve(section_count * kSectionEntrySize);
  std::uint64_t offset = 0;
  for (std::size_t i = 0; i < section_count; ++i) {
    put_u32(table, kind_of(i));
    put_u64(table, sections[i].digest);
    put_u64(table, offset);
    put_u64(table, sections[i].bytes.size());
    offset += sections[i].bytes.size();
  }
  const std::uint64_t payload_size = table.size() + offset;

  std::string out;
  out.reserve(kBaseHeaderSize + payload_size);
  out.append(kMagic, sizeof(kMagic));
  put_u32(out, kSnapshotFormatVersion);
  put_u8(out, policy_byte(policy));
  out.append(3, '\0');
  put_u64(out, data.state.combined_hash);
  put_u64(out, payload_size);
  put_u64(out, content_digest(table));
  put_u32(out, static_cast<std::uint32_t>(section_count));
  out.append(table);
  for (const EncodedSection& section : sections) out.append(section.bytes);
  return out;
}

std::string encode_snapshot_delta(const SnapshotDelta& delta,
                                  std::uint32_t layer_index,
                                  std::uint64_t prev_chain_hash,
                                  diag::ParsePolicy policy) {
  const std::string payload = encode_delta_payload(delta);
  std::string out;
  out.reserve(kLayerHeaderSize + payload.size());
  out.append(kDeltaMagic, sizeof(kDeltaMagic));
  put_u32(out, layer_index);
  put_u8(out, policy_byte(policy));
  out.append(3, '\0');
  put_u64(out, prev_chain_hash);
  put_u64(out, payload.size());
  put_u64(out, content_digest(payload));
  out.append(payload);
  return out;
}

namespace {

/// Decode a base payload (section table + sections) into `data`,
/// validating and deserialising sections over `num_threads` workers.
/// Returns false on any disagreement; throws (caught by the caller) on
/// truncated fields or histories adopt_history refuses.
bool decode_base(std::string_view payload, std::uint64_t header_content_hash,
                 std::uint64_t table_digest, std::uint32_t section_count,
                 diag::ParsePolicy policy, int num_threads,
                 SnapshotData& data) {
  // The table must fit the payload (a short file is a truncated section
  // table) and carry the exact sections the format demands: state, Dst,
  // zero or more catalog stripes, quality.
  if (section_count < 3) return false;
  const std::uint64_t table_size =
      static_cast<std::uint64_t>(section_count) * kSectionEntrySize;
  if (table_size > payload.size()) return false;
  const std::string_view table = payload.substr(0, table_size);
  if (content_digest(table) != table_digest) return false;

  const std::string_view body = payload.substr(table_size);
  std::vector<SectionEntry> entries(section_count);
  {
    Cursor tc(table);
    std::uint64_t running = 0;
    for (std::uint32_t i = 0; i < section_count; ++i) {
      SectionEntry& entry = entries[i];
      entry.kind = tc.u32();
      entry.digest = tc.u64();
      entry.offset = tc.u64();
      entry.length = tc.u64();
      // Sections must tile the body contiguously in table order; any
      // overlap, gap or out-of-bounds length rejects the snapshot.
      if (entry.offset != running) return false;
      if (entry.length > body.size() - running) return false;
      running += entry.length;
      const std::uint32_t expected =
          i == 0 ? kSectionState
          : i == 1 ? kSectionDst
          : i + 1 < section_count ? kSectionCatalogStripe
                                  : kSectionQuality;
      if (entry.kind != expected) return false;
    }
    if (running != body.size()) return false;
  }

  // Validate and deserialise the sections in parallel.  Workers only read
  // the mapped bytes and build private results; failures are carried out
  // as flags (never thrown across the pool) and any one rejects the file.
  struct SectionResult {
    bool ok = true;
    IngestState state;
    std::optional<spaceweather::DstIndex> dst;
    std::vector<std::pair<int, std::vector<tle::Tle>>> satellites;
    std::optional<diag::DataQualityReport> quality;
  };
  std::vector<SectionResult> results = exec::ordered_map<SectionResult>(
      section_count, num_threads,
      [&](std::size_t i) {
        SectionResult result;
        try {
          const SectionEntry& entry = entries[i];
          const std::string_view blob = body.substr(entry.offset, entry.length);
          if (content_digest(blob) != entry.digest) {
            throw ParseError("section digest");
          }
          Cursor in(blob);
          switch (entry.kind) {
            case kSectionState:
              result.state = decode_state(in);
              break;
            case kSectionDst:
              result.dst = decode_dst(in);
              break;
            case kSectionCatalogStripe: {
              const std::uint64_t sat_count = in.u64();
              result.satellites.reserve(sat_count);
              for (std::uint64_t s = 0; s < sat_count; ++s) {
                const std::int32_t id = in.i32();
                const std::uint64_t records = in.u64();
                std::vector<tle::Tle> history;
                // The byte-count bound keeps a corrupt (but digest-valid)
                // count from reserving unbounded memory: each record is
                // at least ~125 bytes of section payload.
                if (records > entry.length / 64) {
                  throw ParseError("stripe record count exceeds section");
                }
                history.reserve(records);
                for (std::uint64_t r = 0; r < records; ++r) {
                  history.push_back(decode_tle(in));
                }
                result.satellites.emplace_back(id, std::move(history));
              }
              break;
            }
            default:
              result.quality = decode_quality(in);
              break;
          }
          if (!in.exhausted()) throw ParseError("section trailing bytes");
        } catch (const std::exception&) {
          result.ok = false;
        }
        return result;
      },
      nullptr);
  for (const SectionResult& result : results) {
    if (!result.ok) return false;
  }

  data.state = results.front().state;
  if (data.state.combined_hash != header_content_hash) return false;
  data.dst = std::move(*results[1].dst);
  for (std::size_t i = 2; i + 1 < results.size(); ++i) {
    for (auto& [id, history] : results[i].satellites) {
      // adopt_history re-validates each record and the epoch ordering, and
      // throws on a satellite already adopted — the defences of a per-
      // record add() replay, amortised per history.
      data.catalog.adopt_history(id, std::move(history));
    }
  }
  data.quality = std::move(*results.back().quality);
  return data.quality.policy == policy;
}

}  // namespace

std::optional<SnapshotData> decode_snapshot(std::string_view bytes,
                                            diag::ParsePolicy policy,
                                            int num_threads) {
  if (bytes.size() < kBaseHeaderSize) return std::nullopt;
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) return std::nullopt;
  try {
    Cursor header(
        bytes.substr(sizeof(kMagic), kBaseHeaderSize - sizeof(kMagic)));
    const std::uint32_t version = header.u32();
    if (version != kSnapshotFormatVersion) return std::nullopt;
    const std::uint8_t policy_raw = header.u8();
    header.view(3);  // padding
    if (policy_raw != policy_byte(policy)) return std::nullopt;
    const std::uint64_t header_content_hash = header.u64();
    const std::uint64_t payload_size = header.u64();
    const std::uint64_t table_digest = header.u64();
    const std::uint32_t section_count = header.u32();
    if (bytes.size() - kBaseHeaderSize < payload_size) return std::nullopt;
    const std::string_view payload =
        bytes.substr(kBaseHeaderSize, payload_size);

    SnapshotData data;
    if (!decode_base(payload, header_content_hash, table_digest, section_count,
                     policy, num_threads, data)) {
      return std::nullopt;
    }

    // Walk the delta chain.  Each layer's header must hash-link to the
    // header before it and carry the next 1-based index, so a missing,
    // reordered or foreign layer breaks the walk and rejects the whole
    // snapshot — the text inputs are the source of truth on any doubt.
    //
    // The one recoverable shape is a torn *tail*: a crashed append leaves
    // a pure prefix of valid layer bytes, so "file ends mid-header",
    // "file ends mid-payload" and "final layer fails its digest" all mean
    // the bytes before the tear are exactly the pre-append snapshot.
    // Those truncate (tail_truncated) instead of rejecting.  The same
    // check failing anywhere *before* the final layer cannot come from a
    // torn append and still rejects the whole file.
    std::uint64_t chain = content_digest(bytes.substr(0, kBaseHeaderSize));
    std::size_t pos = kBaseHeaderSize + payload_size;
    std::uint32_t applied = 0;
    while (pos < bytes.size()) {
      if (bytes.size() - pos < kLayerHeaderSize) {
        data.tail_truncated = true;  // torn mid-header
        break;
      }
      const std::string_view layer_header = bytes.substr(pos, kLayerHeaderSize);
      if (std::memcmp(layer_header.data(), kDeltaMagic, sizeof(kDeltaMagic)) !=
          0) {
        return std::nullopt;
      }
      Cursor lh(layer_header.substr(sizeof(kDeltaMagic)));
      const std::uint32_t layer_index = lh.u32();
      const std::uint8_t layer_policy = lh.u8();
      lh.view(3);  // padding
      const std::uint64_t prev_chain = lh.u64();
      const std::uint64_t layer_size = lh.u64();
      const std::uint64_t layer_digest = lh.u64();
      if (layer_index != applied + 1) return std::nullopt;
      if (layer_policy != policy_byte(policy)) return std::nullopt;
      if (prev_chain != chain) return std::nullopt;
      if (bytes.size() - pos - kLayerHeaderSize < layer_size) {
        data.tail_truncated = true;  // torn mid-payload
        break;
      }
      const std::string_view layer_payload =
          bytes.substr(pos + kLayerHeaderSize, layer_size);
      if (content_digest(layer_payload) != layer_digest) {
        const bool final_layer =
            pos + kLayerHeaderSize + layer_size == bytes.size();
        if (!final_layer) return std::nullopt;  // mid-chain bit rot
        data.tail_truncated = true;  // torn inside the final payload
        break;
      }
      Cursor lp(layer_payload);
      apply_delta_payload(lp, data, policy);
      if (!lp.exhausted()) return std::nullopt;
      chain = content_digest(layer_header);
      pos += kLayerHeaderSize + layer_size;
      ++applied;
    }
    data.delta_layers = applied;
    data.chain_hash = chain;
    return data;
  } catch (const std::exception&) {
    // Truncated fields, invalid enum values, or datasets that fail their
    // own validation on rebuild: all reject-and-reparse, never fatal.
    return std::nullopt;
  }
}

std::optional<SnapshotData> load_snapshot(const std::string& path,
                                          diag::ParsePolicy policy,
                                          obs::Metrics* metrics,
                                          int num_threads) {
  const obs::ScopedPhase phase(metrics, "snapshot.load");
  try {
    const MappedFile mapped(path);
    std::optional<SnapshotData> data =
        decode_snapshot(mapped.view(), policy, num_threads);
    if (metrics != nullptr) {
      if (!data.has_value()) {
        metrics->counter("snapshot.rejected").add(1);
      } else {
        if (data->tail_truncated) {
          metrics->counter("snapshot.delta_truncated").add(1);
        }
        // The warm-throughput numerator: records materialised from
        // snapshot bytes, counted whether or not the caller ends up using
        // them.
        metrics->counter("snapshot.load_records")
            .add(data->catalog.record_count());
        // How the base was laid out on disk (header bytes 40-43; the
        // decode above proved the header whole) — stripe sizing, not
        // results, so a scheduling counter.
        metrics->sched_counter("snapshot.load_sections")
            .add(load_le32(mapped.view().data() + kSectionCountOffset));
      }
    }
    return data;
  } catch (const std::exception&) {
    // Unreadable file (most commonly: not written yet) is a plain miss.
    return std::nullopt;
  }
}

namespace {

/// Per-writer temp name for save_snapshot.  A fixed ".tmp" suffix would be
/// shared by every concurrent saver — two processes (or threads) racing to
/// the same cache entry would interleave writes into one temp file and
/// rename a torn hybrid into place.  Embedding the pid separates
/// processes; the process-wide serial separates threads within one.
std::filesystem::path unique_temp_path(const std::string& path) {
  static std::atomic<std::uint64_t> serial{0};
  return std::filesystem::path(
      path + ".tmp." + std::to_string(::getpid()) + "." +
      // cdlint: allow(relaxed-order) the serial only needs uniqueness; no data is published through it
      std::to_string(serial.fetch_add(1, std::memory_order_relaxed)));
}

}  // namespace

bool save_snapshot(const std::string& path, const SnapshotData& data,
                   diag::ParsePolicy policy, obs::Metrics* metrics,
                   int num_threads) {
  const obs::ScopedPhase phase(metrics, "snapshot.save");
  // Temp-then-rename keeps readers off half-written files; the unique temp
  // name keeps concurrent writers off *each other's* — the rename itself is
  // atomic, so the last complete file wins.
  const std::filesystem::path temp = unique_temp_path(path);
  try {
    const std::filesystem::path target(path);
    if (target.has_parent_path()) {
      std::filesystem::create_directories(target.parent_path());
    }
    const std::string bytes = encode_snapshot(data, policy, num_threads);
    {
      // The whole file is in memory already, so commit it with a single
      // buffered write — one syscall-sized transfer, never per-field I/O.
      std::ofstream out(temp, std::ios::binary | std::ios::trunc);
      if (!out) throw IoError("cannot open snapshot temp file");
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      if (!out) throw IoError("failed writing snapshot temp file");
    }
    std::filesystem::rename(temp, target);
    if (metrics != nullptr) {
      metrics->counter("snapshot.written").add(1);
      metrics->counter("snapshot.save_bytes").add(bytes.size());
    }
    return true;
  } catch (const std::exception&) {
    if (metrics != nullptr) metrics->counter("snapshot.write_failed").add(1);
    std::error_code ignored;
    std::filesystem::remove(temp, ignored);
    return false;
  }
}

bool append_snapshot_delta(const std::string& path, const SnapshotDelta& delta,
                           std::uint32_t layer_index,
                           std::uint64_t prev_chain_hash,
                           diag::ParsePolicy policy, obs::Metrics* metrics) {
  const obs::ScopedPhase phase(metrics, "snapshot.save");
  try {
    const std::string bytes =
        encode_snapshot_delta(delta, layer_index, prev_chain_hash, policy);
    // A torn append leaves a layer whose size/digest checks fail on the next
    // load, which falls back to a full reparse and a fresh base — no
    // temp-and-rename dance needed for crash safety here.
    append_file(path, bytes);
    if (metrics != nullptr) {
      metrics->counter("snapshot.delta_written").add(1);
      metrics->counter("snapshot.save_bytes").add(bytes.size());
    }
    return true;
  } catch (const std::exception&) {
    if (metrics != nullptr) metrics->counter("snapshot.write_failed").add(1);
    return false;
  }
}

}  // namespace cosmicdance::io
