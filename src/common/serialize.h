// Binary (de)serialization for model checkpoints and experiment caches.
//
// A tiny, versioned, little-endian tagged format. Writers and readers are
// symmetric; readers validate magic/version and length-prefix every string
// and buffer, throwing SerializationError on any truncation or mismatch.
// Writes are crash-safe: a writer fills a sibling temp file and only
// close() swaps it over the target, so the target always holds either
// its previous content or the complete new file.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.h"

namespace radar {

/// Streaming binary writer.
class BinaryWriter {
 public:
  /// Opens a temp file next to `path` and emits the header. Throws on I/O
  /// failure.
  BinaryWriter(const std::string& path, std::uint32_t format_version);
  /// A writer destroyed without a successful close() (e.g. unwound by an
  /// exception mid-write) deletes its temp file; `path` is untouched.
  ~BinaryWriter();

  void write_u8(std::uint8_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i64(std::int64_t v);
  void write_f32(float v);
  void write_string(const std::string& s);
  /// Raw bytes, no length prefix (callers that need one write it first).
  void write_bytes(const void* data, std::size_t n);
  /// Current byte offset from the start of the file.
  std::uint64_t tell();
  void write_f32_vector(const std::vector<float>& v);
  void write_i8_vector(const std::vector<std::int8_t>& v);
  void write_u8_vector(const std::vector<std::uint8_t>& v);
  void write_u64_vector(const std::vector<std::uint64_t>& v);

  /// Flushes, fsyncs and closes the temp file, renames it over the
  /// target, then fsyncs the target's directory so the rename is durable.
  /// Throws on any failure; a failure before the rename leaves the target
  /// untouched.
  void close();

 private:
  template <typename T>
  void write_raw(const T& v);
  std::string path_;
  std::string tmp_path_;
  std::ofstream out_;
  bool closed_ = false;
};

/// Streaming binary reader (validates the header on open). Every
/// length-prefixed read is bounded by the bytes actually left in the file,
/// so a corrupted length field throws SerializationError instead of
/// attempting a multi-gigabyte allocation.
class BinaryReader {
 public:
  BinaryReader(const std::string& path, std::uint32_t expected_version);
  /// Accept any format version in [min_version, max_version] — for
  /// formats whose loader handles several versions transparently; check
  /// version() after opening.
  BinaryReader(const std::string& path, std::uint32_t min_version,
               std::uint32_t max_version);

  std::uint8_t read_u8();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int64_t read_i64();
  float read_f32();
  std::string read_string();
  std::vector<float> read_f32_vector();
  std::vector<std::int8_t> read_i8_vector();
  std::vector<std::uint8_t> read_u8_vector();
  std::vector<std::uint64_t> read_u64_vector();

  std::uint32_t version() const { return version_; }

  /// Raw bytes into `dst` (throws SerializationError when fewer than `n`
  /// bytes are left).
  void read_bytes(void* dst, std::uint64_t n);
  /// Skip `n` bytes (bounds-checked like read_bytes).
  void skip(std::uint64_t n);
  /// Current byte offset from the start of the file.
  std::uint64_t tell();

  /// Bytes between the current read position and the end of the file.
  std::uint64_t remaining();

 private:
  template <typename T>
  T read_raw();
  /// Throws unless `count` elements of `elem_size` bytes fit in the rest
  /// of the file (overflow-safe).
  void check_length(std::uint64_t count, std::size_t elem_size);
  std::ifstream in_;
  std::string path_;
  std::uint32_t version_ = 0;
  std::uint64_t file_size_ = 0;
};

/// True if a regular file exists at `path`.
bool file_exists(const std::string& path);

}  // namespace radar
