// Small file helpers shared by catalog loaders and format readers.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace cosmicdance::io {

/// Read a whole file as text.  Throws IoError when unreadable.
[[nodiscard]] std::string read_file(const std::string& path);

/// Read a file as lines (\n or \r\n, terminators stripped).
[[nodiscard]] std::vector<std::string> read_lines(const std::string& path);

/// Write text to a file, replacing its contents.  Throws IoError on failure.
void write_file(const std::string& path, const std::string& content);

/// Append bytes to the end of an existing file (created if missing).
/// Throws IoError on failure.  Not atomic: a caller whose format cannot
/// detect a torn tail (the snapshot delta chain can, via per-layer
/// size/checksum checks) should write-and-rename instead.
void append_file(const std::string& path, std::string_view content);

/// A read-only view of a whole file, preferring mmap (zero-copy) with a
/// portable read-whole-file fallback.  The ingestion fast path parses
/// std::string_view slices of the mapping directly, so no per-line or
/// per-record strings are materialised; `view()` stays valid for the
/// lifetime of the MappedFile.
///
/// The fallback (and `Mode::kFallbackRead`, which forces it — differential
/// tests prove both readers byte-identical) pre-sizes one buffer from the
/// file length, so even without mmap the file is read with a single
/// allocation.  Throws IoError when the file cannot be opened or read.
class MappedFile {
 public:
  enum class Mode {
    kAuto,          ///< mmap when available, else read the whole file
    kFallbackRead,  ///< always use the portable read path
  };

  explicit MappedFile(const std::string& path, Mode mode = Mode::kAuto);
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// The file's bytes.  Valid for the lifetime of this object.
  [[nodiscard]] std::string_view view() const noexcept { return view_; }
  [[nodiscard]] std::size_t size() const noexcept { return view_.size(); }
  /// True when the view is backed by an actual memory mapping.
  [[nodiscard]] bool is_mapped() const noexcept { return map_ != nullptr; }

 private:
  void release() noexcept;

  void* map_ = nullptr;          ///< mmap base (nullptr on the fallback path)
  std::size_t map_size_ = 0;     ///< mapped length (may exceed view size)
  std::string fallback_;         ///< owning buffer on the fallback path
  std::string_view view_;
};

}  // namespace cosmicdance::io
