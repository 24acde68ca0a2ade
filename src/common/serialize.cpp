#include "common/serialize.h"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define RADAR_HAVE_FSYNC 1
#endif

namespace radar {

namespace {
constexpr std::uint32_t kMagic = 0x52414452;  // "RADR"
constexpr std::uint64_t kMaxVectorBytes = 1ull << 32;

/// Sibling temp path, unique per process and writer, so concurrent
/// writers of one target never share a temp file.
std::string temp_path_for(const std::string& path) {
  static std::atomic<std::uint64_t> counter{0};
  std::string tmp = path + ".tmp.";
#ifdef RADAR_HAVE_FSYNC
  tmp += std::to_string(::getpid()) + ".";
#endif
  return tmp + std::to_string(counter.fetch_add(1));
}

/// Force a closed file's data to stable storage before it is renamed
/// into place (a crash could otherwise leave an empty file behind the
/// new name).
void sync_file(const std::string& path) {
#ifdef RADAR_HAVE_FSYNC
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw SerializationError("cannot open for sync: " + path);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) throw SerializationError("fsync failure: " + path);
#else
  (void)path;
#endif
}

/// Force the directory entry of a just-renamed file to stable storage, so
/// the rename itself survives a crash. Filesystems that cannot sync a
/// directory (EINVAL) are accepted as they are.
void sync_parent_dir(const std::string& path) {
#ifdef RADAR_HAVE_FSYNC
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw SerializationError("cannot open for sync: " + dir);
  const int rc = ::fsync(fd);
  const int err = errno;
  ::close(fd);
  if (rc != 0 && err != EINVAL)
    throw SerializationError("directory fsync failure: " + dir);
#else
  (void)path;
#endif
}
}  // namespace

BinaryWriter::BinaryWriter(const std::string& path,
                           std::uint32_t format_version)
    : path_(path), tmp_path_(temp_path_for(path)) {
  out_.open(tmp_path_, std::ios::binary);
  if (!out_) throw SerializationError("cannot open for write: " + path);
  write_u32(kMagic);
  write_u32(format_version);
}

BinaryWriter::~BinaryWriter() {
  if (closed_) return;
  out_.close();
  std::error_code ec;
  std::filesystem::remove(tmp_path_, ec);
}

template <typename T>
void BinaryWriter::write_raw(const T& v) {
  out_.write(reinterpret_cast<const char*>(&v), sizeof(T));
  if (!out_) throw SerializationError("write failure: " + path_);
}

void BinaryWriter::write_u8(std::uint8_t v) { write_raw(v); }
void BinaryWriter::write_u32(std::uint32_t v) { write_raw(v); }
void BinaryWriter::write_u64(std::uint64_t v) { write_raw(v); }
void BinaryWriter::write_i64(std::int64_t v) { write_raw(v); }
void BinaryWriter::write_f32(float v) { write_raw(v); }

void BinaryWriter::write_string(const std::string& s) {
  write_u64(s.size());
  out_.write(s.data(), static_cast<std::streamsize>(s.size()));
  if (!out_) throw SerializationError("write failure: " + path_);
}

void BinaryWriter::write_bytes(const void* data, std::size_t n) {
  out_.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(n));
  if (!out_) throw SerializationError("write failure: " + path_);
}

std::uint64_t BinaryWriter::tell() {
  const auto pos = out_.tellp();
  if (pos < 0) throw SerializationError("tell failure: " + path_);
  return static_cast<std::uint64_t>(pos);
}

void BinaryWriter::write_f32_vector(const std::vector<float>& v) {
  write_u64(v.size());
  out_.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(float)));
  if (!out_) throw SerializationError("write failure: " + path_);
}

void BinaryWriter::write_i8_vector(const std::vector<std::int8_t>& v) {
  write_u64(v.size());
  out_.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size()));
  if (!out_) throw SerializationError("write failure: " + path_);
}

void BinaryWriter::write_u8_vector(const std::vector<std::uint8_t>& v) {
  write_u64(v.size());
  out_.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size()));
  if (!out_) throw SerializationError("write failure: " + path_);
}

void BinaryWriter::write_u64_vector(const std::vector<std::uint64_t>& v) {
  write_u64(v.size());
  out_.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(std::uint64_t)));
  if (!out_) throw SerializationError("write failure: " + path_);
}

void BinaryWriter::close() {
  out_.flush();
  if (!out_) throw SerializationError("flush failure: " + path_);
  out_.close();
  if (out_.fail()) throw SerializationError("close failure: " + path_);
  sync_file(tmp_path_);
  std::error_code ec;
  std::filesystem::rename(tmp_path_, path_, ec);
  if (ec)
    throw SerializationError("cannot replace " + path_ + ": " + ec.message());
  closed_ = true;
  sync_parent_dir(path_);
}

BinaryReader::BinaryReader(const std::string& path,
                           std::uint32_t expected_version)
    : BinaryReader(path, expected_version, expected_version) {}

BinaryReader::BinaryReader(const std::string& path,
                           std::uint32_t min_version,
                           std::uint32_t max_version)
    : in_(path, std::ios::binary), path_(path) {
  if (!in_) throw SerializationError("cannot open for read: " + path);
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) throw SerializationError("cannot stat: " + path);
  file_size_ = static_cast<std::uint64_t>(size);
  const auto magic = read_u32();
  if (magic != kMagic)
    throw SerializationError("bad magic in " + path);
  version_ = read_u32();
  if (version_ < min_version || version_ > max_version)
    throw SerializationError("version mismatch in " + path + ": got " +
                             std::to_string(version_) + " expected " +
                             std::to_string(min_version) + ".." +
                             std::to_string(max_version));
}

template <typename T>
T BinaryReader::read_raw() {
  T v{};
  in_.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!in_) throw SerializationError("truncated read: " + path_);
  return v;
}

void BinaryReader::read_bytes(void* dst, std::uint64_t n) {
  if (n > remaining())
    throw SerializationError("truncated read: " + path_);
  in_.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
  if (!in_) throw SerializationError("truncated read: " + path_);
}

void BinaryReader::skip(std::uint64_t n) {
  if (n > remaining())
    throw SerializationError("truncated read: " + path_);
  in_.seekg(static_cast<std::streamoff>(n), std::ios::cur);
  if (!in_) throw SerializationError("seek failure: " + path_);
}

std::uint64_t BinaryReader::tell() {
  const auto pos = in_.tellg();
  if (pos < 0) throw SerializationError("tell failure: " + path_);
  return static_cast<std::uint64_t>(pos);
}

std::uint64_t BinaryReader::remaining() {
  const auto pos = in_.tellg();
  if (pos < 0) return 0;
  const auto upos = static_cast<std::uint64_t>(pos);
  return upos >= file_size_ ? 0 : file_size_ - upos;
}

void BinaryReader::check_length(std::uint64_t count, std::size_t elem_size) {
  if (count > kMaxVectorBytes / elem_size || count * elem_size > remaining())
    throw SerializationError("corrupt length field in " + path_);
}

std::uint8_t BinaryReader::read_u8() { return read_raw<std::uint8_t>(); }
std::uint32_t BinaryReader::read_u32() { return read_raw<std::uint32_t>(); }
std::uint64_t BinaryReader::read_u64() { return read_raw<std::uint64_t>(); }
std::int64_t BinaryReader::read_i64() { return read_raw<std::int64_t>(); }
float BinaryReader::read_f32() { return read_raw<float>(); }

std::string BinaryReader::read_string() {
  const auto n = read_u64();
  check_length(n, 1);
  std::string s(n, '\0');
  in_.read(s.data(), static_cast<std::streamsize>(n));
  if (!in_) throw SerializationError("truncated string: " + path_);
  return s;
}

std::vector<float> BinaryReader::read_f32_vector() {
  const auto n = read_u64();
  check_length(n, sizeof(float));
  std::vector<float> v(n);
  in_.read(reinterpret_cast<char*>(v.data()),
           static_cast<std::streamsize>(n * sizeof(float)));
  if (!in_) throw SerializationError("truncated vector: " + path_);
  return v;
}

std::vector<std::int8_t> BinaryReader::read_i8_vector() {
  const auto n = read_u64();
  check_length(n, 1);
  std::vector<std::int8_t> v(n);
  in_.read(reinterpret_cast<char*>(v.data()),
           static_cast<std::streamsize>(n));
  if (!in_) throw SerializationError("truncated vector: " + path_);
  return v;
}

std::vector<std::uint8_t> BinaryReader::read_u8_vector() {
  const auto n = read_u64();
  check_length(n, 1);
  std::vector<std::uint8_t> v(n);
  in_.read(reinterpret_cast<char*>(v.data()),
           static_cast<std::streamsize>(n));
  if (!in_) throw SerializationError("truncated vector: " + path_);
  return v;
}

std::vector<std::uint64_t> BinaryReader::read_u64_vector() {
  const auto n = read_u64();
  check_length(n, sizeof(std::uint64_t));
  std::vector<std::uint64_t> v(n);
  in_.read(reinterpret_cast<char*>(v.data()),
           static_cast<std::streamsize>(n * sizeof(std::uint64_t)));
  if (!in_) throw SerializationError("truncated vector: " + path_);
  return v;
}

bool file_exists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::is_regular_file(path, ec);
}

}  // namespace radar
