#include "core/package.h"

#include <algorithm>
#include <csignal>
#include <cstring>

#include "codes/crc.h"
#include "common/fault_points.h"
#include "common/serialize.h"
#include "common/thread_pool.h"
#include "data/model_recipe.h"
#include "core/scan_scheduler.h"
#include "core/scheme_registry.h"

#if defined(__unix__) || defined(__APPLE__)
#define RADAR_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace radar::core {

namespace {

std::uint32_t weights_crc(const quant::QuantizedModel& qm) {
  codes::Crc crc(codes::CrcSpec::crc32());
  // CRC over the concatenated int8 payloads, layer order (v2-compatible:
  // real weights only, padding excluded).
  std::uint32_t acc = 0;
  for (std::size_t li = 0; li < qm.num_layers(); ++li) {
    const auto& q = qm.layer(li).q;
    acc ^= crc.compute_i8(std::span<const std::int8_t>(q.data(), q.size()));
    acc = (acc << 1) | (acc >> 31);  // order-sensitive combination
  }
  return acc;
}

std::uint32_t section_crc(std::span<const std::uint8_t> bytes) {
  return codes::Crc(codes::CrcSpec::crc32()).compute(bytes);
}

/// The engine section is assembled in memory so its CRC can be written
/// in the trailer; values are stored in host byte order like the rest of
/// the file.
class SectionWriter {
 public:
  template <typename T>
  void put(T v) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    bytes.insert(bytes.end(), p, p + sizeof(T));
  }
  void put_f32s(const std::vector<float>& v) {
    put<std::uint64_t>(v.size());
    for (const float f : v) put(f);
  }
  std::vector<std::uint8_t> bytes;
};

/// Bounds-checked reader over the engine section bytes.
class SectionReader {
 public:
  explicit SectionReader(std::span<const std::uint8_t> bytes)
      : bytes_(bytes) {}
  template <typename T>
  T get() {
    if (sizeof(T) > remaining())
      throw SerializationError("truncated engine section in package");
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  std::vector<float> get_f32s() {
    const auto n = get<std::uint64_t>();
    if (n > remaining() / sizeof(float))
      throw SerializationError("corrupt engine vector length in package");
    std::vector<float> v(static_cast<std::size_t>(n));
    if (!v.empty())
      std::memcpy(v.data(), bytes_.data() + pos_, v.size() * sizeof(float));
    pos_ += v.size() * sizeof(float);
    return v;
  }
  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// Smallest serialized op: kind + relu, three buffer ids, the layer
/// index, seven shape fields, x_scale and two empty vector lengths.
constexpr std::size_t kMinOpBytes = 2 + 3 * 4 + 8 + 7 * 8 + 4 + 2 * 8;
constexpr std::uint8_t kMaxOpKind =
    static_cast<std::uint8_t>(qnn::EngineOp::Kind::kFlatten);
/// Trailer after the section bytes: u64 length + u32 CRC.
constexpr std::uint64_t kSectionTrailerBytes = 8 + 4;

std::vector<std::uint8_t> encode_engine(const qnn::EngineProgram& p) {
  SectionWriter w;
  w.put<std::int64_t>(p.in_channels);
  w.put<std::int64_t>(p.num_classes);
  w.put<std::int64_t>(p.calib_images);
  w.put<std::uint64_t>(p.ops.size());
  for (const qnn::EngineOp& op : p.ops) {
    w.put(static_cast<std::uint8_t>(op.kind));
    w.put<std::uint8_t>(op.relu ? 1 : 0);
    w.put<std::int32_t>(op.src);
    w.put<std::int32_t>(op.src2);
    w.put<std::int32_t>(op.dst);
    w.put<std::uint64_t>(op.qlayer);
    w.put<std::int64_t>(op.geom.in_channels);
    w.put<std::int64_t>(op.geom.out_channels);
    w.put<std::int64_t>(op.geom.kernel);
    w.put<std::int64_t>(op.geom.stride);
    w.put<std::int64_t>(op.geom.padding);
    w.put<std::int64_t>(op.in_features);
    w.put<std::int64_t>(op.out_features);
    w.put(op.x_scale);
    w.put_f32s(op.out_scale);
    w.put_f32s(op.out_bias);
  }
  return std::move(w.bytes);
}

/// Decodes the section and checks the program against the package's own
/// layer table, so a corrupt program dies here rather than in a forward.
qnn::EngineProgram decode_engine(std::span<const std::uint8_t> bytes,
                                 const std::vector<quant::ArenaLayer>& layers) {
  SectionReader r(bytes);
  qnn::EngineProgram p;
  p.in_channels = r.get<std::int64_t>();
  p.num_classes = r.get<std::int64_t>();
  p.calib_images = r.get<std::int64_t>();
  const auto count = r.get<std::uint64_t>();
  if (count > r.remaining() / kMinOpBytes)
    throw SerializationError("corrupt engine op count in package");
  p.ops.resize(static_cast<std::size_t>(count));
  for (qnn::EngineOp& op : p.ops) {
    const auto kind = r.get<std::uint8_t>();
    if (kind > kMaxOpKind)
      throw SerializationError("corrupt engine op kind in package");
    op.kind = static_cast<qnn::EngineOp::Kind>(kind);
    op.relu = r.get<std::uint8_t>() != 0;
    op.src = r.get<std::int32_t>();
    op.src2 = r.get<std::int32_t>();
    op.dst = r.get<std::int32_t>();
    // Clamped so the size_t narrowing cannot wrap an out-of-range index
    // back into range; layers.size() itself fails program_defect.
    op.qlayer = static_cast<std::size_t>(
        std::min<std::uint64_t>(r.get<std::uint64_t>(), layers.size()));
    op.geom.in_channels = r.get<std::int64_t>();
    op.geom.out_channels = r.get<std::int64_t>();
    op.geom.kernel = r.get<std::int64_t>();
    op.geom.stride = r.get<std::int64_t>();
    op.geom.padding = r.get<std::int64_t>();
    op.in_features = r.get<std::int64_t>();
    op.out_features = r.get<std::int64_t>();
    op.x_scale = r.get<float>();
    op.out_scale = r.get_f32s();
    op.out_bias = r.get_f32s();
  }
  if (r.remaining() != 0)
    throw SerializationError("trailing bytes in engine section of package");
  std::vector<std::int64_t> sizes(layers.size());
  for (std::size_t i = 0; i < layers.size(); ++i) sizes[i] = layers[i].size;
  if (const char* defect = qnn::program_defect(p, sizes))
    throw SerializationError(std::string("corrupt engine program in package: ") +
                             defect);
  return p;
}

/// The program a v4 package signs: compiled from `qm`'s network and
/// calibrated on the first test images of the dataset its spec names.
qnn::EngineProgram sign_time_program(const quant::QuantizedModel& qm) {
  const data::ModelRecipe recipe =
      data::model_recipe(qm.network().spec().name);
  const data::SyntheticDataset ds = recipe.dataset();
  const std::int64_t n = std::min(kPackageCalibImages, ds.test_size());
  return qnn::calibrated_program(qm, ds.test_batch(0, n).images);
}

void write_scheme(BinaryWriter& w, const std::string& id,
                  const SchemeParams& p) {
  w.write_string(id);
  w.write_i64(p.group_size);
  w.write_u8(p.interleave ? 1 : 0);
  w.write_i64(p.skew);
  w.write_u8(p.expansion == MaskStream::Expansion::kRepeat ? 0 : 1);
  w.write_u64(p.master_key);
}

void read_scheme(BinaryReader& r, std::string& id, SchemeParams& p) {
  id = r.read_string();
  p.group_size = r.read_i64();
  p.interleave = r.read_u8() != 0;
  p.skew = r.read_i64();
  p.expansion = r.read_u8() == 0 ? MaskStream::Expansion::kRepeat
                                 : MaskStream::Expansion::kPrf;
  p.master_key = r.read_u64();
  // Bound the grouping parameters before any layout / scan work (see
  // kMaxGroupSize): a corrupted group size would otherwise hang the scan
  // or zero-divide.
  if (p.group_size < 1 || p.group_size > kMaxGroupSize || p.skew < 0 ||
      p.skew > kMaxSkew)
    throw SerializationError("corrupt scheme parameters in package");
}

#ifdef RADAR_HAVE_MMAP
/// Read-only whole-file mapping; keeps the pages alive for however long a
/// scheme holds the shared_ptr.
class MappedFile {
 public:
  static std::shared_ptr<MappedFile> map(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return nullptr;
    struct stat st {};
    if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
      ::close(fd);
      return nullptr;
    }
    void* p = ::mmap(nullptr, static_cast<std::size_t>(st.st_size),
                     PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);  // the mapping keeps its own reference
    if (p == MAP_FAILED) return nullptr;
    return std::shared_ptr<MappedFile>(
        new MappedFile(p, static_cast<std::size_t>(st.st_size)));
  }
  ~MappedFile() { ::munmap(base_, len_); }
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  std::span<const std::int8_t> bytes() const {
    return {static_cast<const std::int8_t*>(base_), len_};
  }

 private:
  MappedFile(void* base, std::size_t len) : base_(base), len_(len) {}
  void* base_;
  std::size_t len_;
};
#endif

/// Everything parsed from a package file before it touches a model.
struct ParsedPackage {
  PackageInfo info;
  std::uint32_t stored_crc = 0;
  std::vector<std::vector<std::uint8_t>> golden;
  /// v3+: weight blob in arena geometry; v2: rebuilt from per-layer
  /// vectors using the shared offset rule.
  std::vector<std::int8_t> blob;
  std::uint64_t blob_file_offset = 0;  ///< v3+ only (0 = not mmap-able)
};

/// Validate a v3+ layer-table row against the running cursor and the blob
/// bounds; corrupt tables must die here, before any allocation or scan
/// sized from them.
void check_table_entry(const quant::ArenaLayer& l, std::int64_t prev_end,
                       std::int64_t arena_bytes) {
  if (l.size < 0 || l.offset < 0 ||
      l.offset % quant::kArenaAlignment != 0 || l.offset < prev_end ||
      l.size > arena_bytes || l.offset > arena_bytes - l.size)
    throw SerializationError("corrupt arena layer table in package");
}

/// `read_blob = false` skips materializing the weight payload (metadata
/// queries on v3+ packages then never touch the arena bytes; v2 files
/// still stream through their per-layer vectors to reach later fields).
ParsedPackage parse_package(const std::string& path, bool read_blob = true) {
  BinaryReader r(path, kPackageFormatV2, kPackageFormatV4);
  ParsedPackage pkg;
  pkg.info.format_version = r.version();
  pkg.info.model_name = r.read_string();
  read_scheme(r, pkg.info.scheme_id, pkg.info.params);
  pkg.stored_crc = r.read_u32();
  pkg.info.num_layers = r.read_u64();
  if (pkg.info.num_layers >
      r.remaining() / 8)  // each layer costs >= 8 structural bytes
    throw SerializationError("corrupt layer count in package");

  if (r.version() == kPackageFormatV2) {
    // v2: per-layer (name, scale, codes, golden) records. Rebuild the
    // contiguous arena with the shared offset rule so downstream code
    // sees one geometry regardless of the on-disk format.
    std::int64_t cursor = 0;
    for (std::size_t li = 0; li < pkg.info.num_layers; ++li) {
      quant::ArenaLayer l;
      l.name = r.read_string();
      l.scale = r.read_f32();
      if (read_blob) {
        auto codes = r.read_i8_vector();
        l.size = static_cast<std::int64_t>(codes.size());
        cursor = quant::WeightArena::aligned_offset(cursor);
        l.offset = cursor;
        cursor += l.size;
        pkg.blob.resize(static_cast<std::size_t>(
            quant::WeightArena::aligned_offset(cursor)));
        if (!codes.empty())
          std::memcpy(pkg.blob.data() + l.offset, codes.data(),
                      codes.size());
      } else {
        // Metadata-only: learn the size, skip the payload bytes.
        const std::uint64_t n = r.read_u64();
        r.skip(n);
        l.size = static_cast<std::int64_t>(n);
        cursor = quant::WeightArena::aligned_offset(cursor);
        l.offset = cursor;
        cursor += l.size;
      }
      pkg.info.total_weights += l.size;
      pkg.info.layers.push_back(std::move(l));
      pkg.golden.push_back(r.read_u8_vector());
    }
    pkg.info.arena_bytes = quant::WeightArena::aligned_offset(cursor);
    return pkg;
  }

  // v3+: layer table, golden codes, then the aligned arena blob.
  pkg.info.arena_bytes = r.read_i64();
  if (pkg.info.arena_bytes < 0 ||
      static_cast<std::uint64_t>(pkg.info.arena_bytes) > r.remaining())
    throw SerializationError("corrupt arena size in package");
  std::int64_t prev_end = 0;
  for (std::size_t li = 0; li < pkg.info.num_layers; ++li) {
    quant::ArenaLayer l;
    l.name = r.read_string();
    l.scale = r.read_f32();
    l.size = r.read_i64();
    l.offset = r.read_i64();
    check_table_entry(l, prev_end, pkg.info.arena_bytes);
    prev_end = l.offset + l.size;
    pkg.info.total_weights += l.size;
    pkg.info.layers.push_back(std::move(l));
  }
  for (std::size_t li = 0; li < pkg.info.num_layers; ++li)
    pkg.golden.push_back(r.read_u8_vector());
  const std::uint32_t pad = r.read_u32();
  if (pad >= quant::kArenaAlignment)
    throw SerializationError("corrupt arena padding in package");
  r.skip(pad);
  pkg.blob_file_offset = r.tell();
  const auto arena_bytes = static_cast<std::uint64_t>(pkg.info.arena_bytes);
  if (read_blob) {
    pkg.blob.resize(static_cast<std::size_t>(pkg.info.arena_bytes));
    r.read_bytes(pkg.blob.data(), arena_bytes);
  } else {
    r.skip(arena_bytes);  // still validates the file actually has it
  }
  if (r.version() < kPackageFormatV4) return pkg;

  // v4: the engine section runs from here to its trailer at EOF.
  const std::uint64_t rest = r.remaining();
  if (rest < kSectionTrailerBytes)
    throw SerializationError("truncated engine section in package");
  std::vector<std::uint8_t> section(
      static_cast<std::size_t>(rest - kSectionTrailerBytes));
  r.read_bytes(section.data(), section.size());
  if (r.read_u64() != section.size())
    throw SerializationError("corrupt engine section length in package");
  if (r.read_u32() != section_crc(section))
    throw SerializationError("engine section CRC mismatch in package");
  pkg.info.engine = decode_engine(section, pkg.info.layers);
  return pkg;
}

void save_package_v2(BinaryWriter& w, const quant::QuantizedModel& qm,
                     const IntegrityScheme& scheme) {
  const auto golden = scheme.export_golden();
  for (std::size_t li = 0; li < qm.num_layers(); ++li) {
    const auto& layer = qm.layer(li);
    w.write_string(layer.name);
    w.write_f32(layer.scale);
    w.write_u64(layer.q.size());
    w.write_bytes(layer.q.data(), layer.q.size());
    w.write_u8_vector(golden[li]);
  }
}

void save_package_v3(BinaryWriter& w, const quant::QuantizedModel& qm,
                     const IntegrityScheme& scheme) {
  const quant::WeightArena& arena = qm.arena();
  w.write_i64(arena.size_bytes());
  for (std::size_t li = 0; li < qm.num_layers(); ++li) {
    const quant::ArenaLayer& l = arena.layer(li);
    w.write_string(l.name);
    // Scale comes from the QuantLayer — the copy the runtime dequantizes
    // with — so v2 and v3 saves agree even if a caller wrote
    // QuantLayer::scale directly instead of through set_scale().
    w.write_f32(qm.layer(li).scale);
    w.write_i64(l.size);
    w.write_i64(l.offset);
  }
  const auto golden = scheme.export_golden();
  for (std::size_t li = 0; li < qm.num_layers(); ++li)
    w.write_u8_vector(golden[li]);
  // Pad so the blob lands 64-byte aligned in the file: a page-aligned
  // mapping then yields cacheline-aligned layer spans for free.
  const std::uint64_t pos = w.tell() + sizeof(std::uint32_t);
  const auto pad = static_cast<std::uint32_t>(
      (quant::kArenaAlignment - pos % quant::kArenaAlignment) %
      quant::kArenaAlignment);
  w.write_u32(pad);
  static constexpr char kZeros[quant::kArenaAlignment] = {};
  w.write_bytes(kZeros, pad);
  w.write_bytes(arena.bytes().data(),
                static_cast<std::size_t>(arena.size_bytes()));
}

/// load_package on an already parsed file: `path` is only re-opened for
/// the golden mapping.
PackageLoadReport load_parsed(const std::string& path, ParsedPackage pkg,
                              quant::QuantizedModel& qm,
                              std::unique_ptr<IntegrityScheme>& scheme,
                              const PackageLoadOptions& opts) {
  PackageLoadReport report;
  report.info = std::move(pkg.info);
  RADAR_REQUIRE(report.info.num_layers == qm.num_layers(),
                "package layer count does not match model");
  // The package geometry must match the model's arena exactly (offsets
  // are deterministic given the sizes, so any well-formed package for
  // this model matches; a mismatch means corruption or the wrong model).
  std::vector<float> scales(report.info.num_layers);
  for (std::size_t li = 0; li < report.info.num_layers; ++li) {
    const quant::ArenaLayer& pl = report.info.layers[li];
    const quant::ArenaLayer& ml = qm.arena().layer(li);
    RADAR_REQUIRE(pl.size == ml.size,
                  "package layer size mismatch at " + pl.name);
    RADAR_REQUIRE(pl.offset == ml.offset,
                  "package arena geometry mismatch at " + pl.name);
    scales[li] = pl.scale;
  }
  RADAR_REQUIRE(static_cast<std::int64_t>(pkg.blob.size()) ==
                    qm.arena().size_bytes(),
                "package arena size does not match model");
  qm.load_weights(
      std::span<const std::int8_t>(pkg.blob.data(), pkg.blob.size()),
      scales);

  report.crc_ok = (weights_crc(qm) == pkg.stored_crc);

  // Rebuild the scheme from the stored id + params, then substitute the
  // stored golden codes and scan: mismatches localize tampering.
  scheme = SchemeRegistry::instance().create(report.info.scheme_id,
                                             report.info.params);

#ifdef RADAR_HAVE_MMAP
  // Map the file's arena BEFORE attach: when the mapping succeeds, the
  // attach can skip its owned clean-copy capture entirely (one
  // full-arena allocation + memcpy saved — the zero-copy point of the
  // feature), because set_clean_source installs the mapped bytes right
  // after.
  std::shared_ptr<MappedFile> mapped;
  std::span<const std::int8_t> mapped_arena;
  if (opts.mmap_golden && report.info.format_version >= kPackageFormatV3 &&
      pkg.blob_file_offset % quant::kArenaAlignment == 0) {
    if ((mapped = MappedFile::map(path)) != nullptr) {
      const auto all = mapped->bytes();
      if (pkg.blob_file_offset + pkg.blob.size() <= all.size())
        mapped_arena = all.subspan(
            static_cast<std::size_t>(pkg.blob_file_offset),
            pkg.blob.size());
      else
        mapped.reset();
    }
  }
  // TOCTOU guard: the mapping re-reads the file by path, so its bytes
  // were never CRC/signature-verified. Install it only when it is
  // byte-identical to the blob the verification ran on; otherwise fall
  // back to the owned clean copy.
  if (mapped != nullptr &&
      (mapped_arena.size() != pkg.blob.size() ||
       std::memcmp(mapped_arena.data(), pkg.blob.data(),
                   pkg.blob.size()) != 0))
    mapped.reset();
  if (mapped != nullptr) scheme->defer_clean_capture();
#endif

  scheme->attach(qm, /*sign=*/false);
  scheme->import_golden(std::move(pkg.golden));

#ifdef RADAR_HAVE_MMAP
  if (mapped != nullptr) {
    scheme->set_clean_source(std::move(mapped), mapped_arena);
    report.golden_mmapped = true;
  }
#endif

  ScanScheduler verify;
  verify.plan(*scheme, {});
  std::unique_ptr<ThreadPool> pool;
  if (opts.threads != 1) pool = std::make_unique<ThreadPool>(opts.threads);
  report.tamper = verify.sweep(qm, pool.get());
  report.signatures_ok = !report.tamper.attack_detected();
  return report;
}

}  // namespace

void save_package(const std::string& path, const quant::QuantizedModel& qm,
                  const IntegrityScheme& scheme,
                  const std::string& model_name, std::uint32_t version,
                  const qnn::EngineProgram* engine) {
  RADAR_REQUIRE(scheme.attached(), "scheme must be attached before save");
  RADAR_REQUIRE(scheme.num_layers() == qm.num_layers(),
                "scheme does not match model");
  RADAR_REQUIRE(version >= kPackageFormatV2 && version <= kPackageFormatV4,
                "unsupported package format version");
  // Everything that can fail slowly happens before the file is opened.
  std::vector<std::uint8_t> section;
  if (version >= kPackageFormatV4) {
    const qnn::EngineProgram program =
        engine != nullptr ? *engine : sign_time_program(qm);
    if (const char* defect = qnn::program_defect(program, qm))
      throw InvalidArgument(std::string("cannot sign engine program: ") +
                            defect);
    section = encode_engine(program);
  }
  BinaryWriter w(path, version);
  w.write_string(model_name);
  write_scheme(w, scheme.id(), scheme.params());
  w.write_u32(weights_crc(qm));
  w.write_u64(qm.num_layers());
  if (version == kPackageFormatV2)
    save_package_v2(w, qm, scheme);
  else
    save_package_v3(w, qm, scheme);
  // Crash-test hook: a writer stopped here has a half-written temp file
  // and has not renamed it over `path`.
  if (chaos::fire(chaos::points::kPackageMidWrite)) {
#ifdef SIGSTOP
    std::raise(SIGSTOP);
#endif
  }
  if (version >= kPackageFormatV4) {
    w.write_bytes(section.data(), section.size());
    w.write_u64(section.size());
    w.write_u32(section_crc(section));
  }
  w.close();
}

PackageInfo read_package_info(const std::string& path) {
  return parse_package(path, /*read_blob=*/false).info;
}

MappedArena map_package_arena(const std::string& path) {
  MappedArena out;
#ifdef RADAR_HAVE_MMAP
  ParsedPackage pkg;
  try {
    pkg = parse_package(path, /*read_blob=*/false);
  } catch (const std::exception&) {
    return out;  // unreadable or structurally corrupt: caller backs off
  }
  if (pkg.info.format_version < kPackageFormatV3 ||
      pkg.blob_file_offset % quant::kArenaAlignment != 0 ||
      pkg.info.arena_bytes <= 0)
    return out;
  const auto mapped = MappedFile::map(path);
  if (mapped == nullptr) return out;
  const auto all = mapped->bytes();
  const auto arena_bytes = static_cast<std::size_t>(pkg.info.arena_bytes);
  if (pkg.blob_file_offset + arena_bytes > all.size()) return out;
  out.bytes = all.subspan(static_cast<std::size_t>(pkg.blob_file_offset),
                          arena_bytes);
  out.holder = std::move(mapped);
#else
  (void)path;
#endif
  return out;
}

PackageLoadReport load_package(const std::string& path,
                               quant::QuantizedModel& qm,
                               std::unique_ptr<IntegrityScheme>& scheme,
                               const PackageLoadOptions& opts) {
  return load_parsed(path, parse_package(path), qm, scheme, opts);
}

PackageLoadReport load_package(const std::string& path,
                               std::unique_ptr<quant::QuantizedModel>& qm,
                               std::unique_ptr<IntegrityScheme>& scheme,
                               const PackageLoadOptions& opts) {
  ParsedPackage pkg = parse_package(path);
  qm = std::make_unique<quant::QuantizedModel>(pkg.info.layers);
  return load_parsed(path, std::move(pkg), *qm, scheme, opts);
}

PackageLoadReport load_package(const std::string& path,
                               quant::QuantizedModel& qm,
                               std::unique_ptr<IntegrityScheme>& scheme,
                               std::size_t threads) {
  PackageLoadOptions opts;
  opts.threads = threads;
  return load_package(path, qm, scheme, opts);
}

}  // namespace radar::core
