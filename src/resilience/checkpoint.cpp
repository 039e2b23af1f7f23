#include "resilience/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <type_traits>

#include "resilience/error.hpp"

namespace ltswave::resilience {

namespace {

// --- XXH64 ------------------------------------------------------------------

constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ull;

// XXH64 reads its input as little-endian words on every host.
template <class T> T read_le(const std::uint8_t* p) noexcept {
  T v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    if constexpr (sizeof(T) == 8) v = __builtin_bswap64(v);
    else v = __builtin_bswap32(v);
  }
  return v;
}

constexpr std::uint64_t xxh_round(std::uint64_t acc, std::uint64_t lane) noexcept {
  return std::rotl(acc + lane * kP2, 31) * kP1;
}

constexpr std::uint64_t xxh_merge(std::uint64_t h, std::uint64_t acc) noexcept {
  return (h ^ xxh_round(0, acc)) * kP1 + kP4;
}

// --- file header ------------------------------------------------------------

// std::array rather than char[8]: GCC 12's -Wstringop-overflow misjudges the
// raw array's extent when copies of it are fully inlined at -O2/-O3.
constexpr std::array<char, 8> kMagic = {'L', 'T', 'S', 'W', 'C', 'K', 'P', 'T'};
// magic + version + 2 arch-tag bytes + payload size + checksum.
constexpr std::size_t kHeaderBytes = 8 + 4 + 1 + 1 + 8 + 8;
using HeaderBytes = std::array<std::uint8_t, kHeaderBytes>;

constexpr std::uint8_t kLittleEndianTag = 0x01;
constexpr std::uint8_t kBigEndianTag = 0x02;

constexpr std::uint8_t byte_order_tag() noexcept {
  return std::endian::native == std::endian::little ? kLittleEndianTag : kBigEndianTag;
}

const char* byte_order_name(std::uint8_t tag) noexcept {
  return tag == kLittleEndianTag ? "little-endian"
                                 : (tag == kBigEndianTag ? "big-endian" : "unknown-endian");
}

struct PayloadDigest {
  std::uint64_t size = 0;
  std::uint64_t checksum = 0;
};

HeaderBytes encode_header(const PayloadDigest& d) {
  HeaderBytes h{};
  const std::uint32_t version = Checkpoint::kVersion;
  std::memcpy(h.data(), kMagic.data(), kMagic.size());
  std::memcpy(h.data() + 8, &version, sizeof version);
  h[12] = byte_order_tag();
  h[13] = static_cast<std::uint8_t>(sizeof(real_t));
  std::memcpy(h.data() + 14, &d.size, sizeof d.size);
  std::memcpy(h.data() + 22, &d.checksum, sizeof d.checksum);
  return h;
}

/// Validates the header of a `total`-byte image whose first min(total, 30)
/// bytes are at `data`; returns the payload size and checksum it declares.
PayloadDigest decode_header(const std::uint8_t* data, std::uint64_t total) {
  if (total < kHeaderBytes)
    LTS_RAISE(CorruptInput, "checkpoint too short for a header (" << total << " bytes)");
  if (std::memcmp(data, kMagic.data(), kMagic.size()) != 0)
    LTS_RAISE(CorruptInput, "bad checkpoint magic — not an ltswave checkpoint");
  std::uint32_t version{};
  std::memcpy(&version, data + 8, sizeof version);
  if (version != Checkpoint::kVersion)
    LTS_RAISE(CorruptInput, "unsupported checkpoint version " << version << " (want "
                                                              << Checkpoint::kVersion << ")");
  // Arch tags come before the checksum check on purpose: a foreign-arch file
  // has a *valid* checksum over bytes this build would misinterpret, so it
  // must be refused on the tag alone.
  const std::uint8_t order = data[12];
  const std::uint8_t real_width = data[13];
  if (order != byte_order_tag())
    LTS_RAISE(CheckpointMismatch, "checkpoint was written on a "
                                      << byte_order_name(order) << " machine, this build is "
                                      << byte_order_name(byte_order_tag())
                                      << " — checkpoints are not an interchange format");
  if (real_width != sizeof(real_t))
    LTS_RAISE(CheckpointMismatch, "checkpoint was written with sizeof(real_t)="
                                      << static_cast<int>(real_width) << ", this build uses "
                                      << sizeof(real_t)
                                      << " — checkpoints are not an interchange format");
  PayloadDigest d;
  std::memcpy(&d.size, data + 14, sizeof d.size);
  std::memcpy(&d.checksum, data + 22, sizeof d.checksum);
  if (total - kHeaderBytes != d.size)
    LTS_RAISE(CorruptInput, "checkpoint payload size mismatch — header says "
                                << d.size << " bytes, file carries " << (total - kHeaderBytes));
  return d;
}

// --- payload ----------------------------------------------------------------

/// The payload field order, defined once for every reader and writer. `io`
/// is a PayloadWriter (over a const Checkpoint) or a PayloadReader; both
/// offer value(x) for a fixed-width scalar, array(c) for a u64 count plus
/// the contiguous elements of a vector or string, and list(c, item) for a
/// u64 count plus `item` applied to each element.
template <class Ck, class Io> void visit_payload(Ck& ck, Io& io) {
  io.array(ck.executor);
  io.array(ck.config);
  auto& s = ck.state;
  io.array(s.u);
  io.array(s.v_half);
  io.value(s.time);
  io.value(s.dt);
  io.value(s.cycles);
  io.value(s.element_applies);
  io.value(s.blocks_applied);
  io.array(s.applies_per_level);
  io.list(s.frozen_forces, [&](auto& f) { io.array(f); });
  io.array(s.cumulative);
  io.list(ck.traces, [&](auto& t) {
    io.array(t.times);
    io.array(t.values);
  });
}

/// Writes the payload fields, in place, to a Sink offering put(ptr, bytes).
template <class Sink> class PayloadWriter {
public:
  explicit PayloadWriter(Sink& sink) : sink_(sink) {}

  template <class T> void value(const T& x) {
    static_assert(std::is_trivially_copyable_v<T>);
    sink_.put(&x, sizeof x);
  }

  template <class C> void array(const C& c) {
    static_assert(std::is_trivially_copyable_v<typename C::value_type>);
    value(static_cast<std::uint64_t>(c.size()));
    sink_.put(c.data(), c.size() * sizeof(typename C::value_type));
  }

  template <class C, class F> void list(const C& c, F&& item) {
    value(static_cast<std::uint64_t>(c.size()));
    for (const auto& x : c) item(x);
  }

private:
  Sink& sink_;
};

/// Pass one of a write: the payload's size and checksum, read from the
/// caller's vectors without copying them.
struct DigestSink {
  Xxh64 hash;
  std::uint64_t bytes = 0;

  void put(const void* p, std::size_t n) {
    hash.update(p, n);
    bytes += n;
  }
};

struct MemorySink {
  std::uint8_t* at;

  void put(const void* p, std::size_t n) {
    if (n) std::memcpy(at, p, n);
    at += n;
  }
};

struct FileSink {
  std::FILE* f;
  const std::string& path;

  void put(const void* p, std::size_t n) {
    if (n && std::fwrite(p, 1, n, f) != n)
      LTS_RAISE(Error, "write to '" << path << "' failed: " << std::strerror(errno));
  }
};

PayloadDigest digest_payload(const Checkpoint& ck) {
  DigestSink d;
  PayloadWriter w(d);
  visit_payload(ck, w);
  return {d.bytes, d.hash.digest()};
}

/// Reads the payload fields from a Source offering get(ptr, bytes) straight
/// into their destination vectors, hashing as it goes. Every count is
/// checked against the bytes left before anything is allocated.
template <class Source> class PayloadReader {
public:
  PayloadReader(Source& src, std::uint64_t size) : src_(src), left_(size) {}

  template <class T> void value(T& x) {
    static_assert(std::is_trivially_copyable_v<T>);
    read(&x, sizeof x);
  }

  template <class C> void array(C& c) {
    using T = typename C::value_type;
    static_assert(std::is_trivially_copyable_v<T>);
    c.resize(count(sizeof(T)));
    read(c.data(), c.size() * sizeof(T));
  }

  // Every list item opens with at least one u64 count.
  template <class C, class F> void list(C& c, F&& item) {
    c.resize(count(sizeof(std::uint64_t)));
    for (auto& x : c) item(x);
  }

  void finish(std::uint64_t checksum) const {
    if (left_ != 0)
      LTS_RAISE(CorruptInput, "checkpoint payload has " << left_ << " trailing bytes");
    if (hash_.digest() != checksum)
      LTS_RAISE(CorruptInput, "checkpoint checksum mismatch — the payload is corrupted");
  }

private:
  std::size_t count(std::size_t item_bytes) {
    std::uint64_t n{};
    value(n);
    // Divide, don't multiply: a hostile count must not overflow the check.
    if (n > left_ / item_bytes)
      LTS_RAISE(CorruptInput, "truncated checkpoint payload — count "
                                  << n << " of " << item_bytes << "-byte items at offset "
                                  << pos_ - sizeof n << " exceeds the " << left_
                                  << " bytes left");
    return static_cast<std::size_t>(n);
  }

  void read(void* dst, std::size_t n) {
    if (n > left_)
      LTS_RAISE(CorruptInput, "truncated checkpoint payload — " << n << " bytes wanted at offset "
                                                                << pos_ << ", " << left_
                                                                << " left");
    // Hash chunk by chunk while each is still in cache.
    constexpr std::size_t kChunk = std::size_t{1} << 18;
    auto* out = static_cast<std::uint8_t*>(dst);
    for (std::size_t off = 0; off < n; off += kChunk) {
      const std::size_t k = std::min(kChunk, n - off);
      src_.get(out + off, k);
      hash_.update(out + off, k);
    }
    left_ -= n;
    pos_ += n;
  }

  Source& src_;
  Xxh64 hash_;
  std::uint64_t left_;
  std::uint64_t pos_ = 0;
};

struct MemorySource {
  const std::uint8_t* at;

  void get(void* dst, std::size_t n) {
    std::memcpy(dst, at, n);
    at += n;
  }
};

struct FileSource {
  std::FILE* f;

  void get(void* dst, std::size_t n) {
    if (std::fread(dst, 1, n, f) != n)
      LTS_RAISE(CorruptInput, "checkpoint file ended early or could not be read");
  }
};

template <class Source> Checkpoint read_payload(Source& src, const PayloadDigest& d) {
  Checkpoint ck;
  PayloadReader r(src, d.size);
  visit_payload(ck, r);
  r.finish(d.checksum);
  return ck;
}

struct FileCloser {
  void operator()(std::FILE* f) const noexcept { std::fclose(f); }
};

} // namespace

Xxh64::Xxh64() noexcept : acc_{kP1 + kP2, kP2, 0, 0 - kP1} {}

void Xxh64::update(const void* data, std::size_t size) noexcept {
  if (size == 0) return;
  auto* p = static_cast<const std::uint8_t*>(data);
  total_ += size;
  if (buffered_ + size < buf_.size()) {
    std::memcpy(buf_.data() + buffered_, p, size);
    buffered_ += size;
    return;
  }
  // Local lanes: the input bytes may alias the members, so updating acc_
  // in place would store it back to memory on every stripe.
  std::array<std::uint64_t, 4> acc = acc_;
  auto stripe = [&acc](const std::uint8_t* s) {
    for (int i = 0; i < 4; ++i) acc[i] = xxh_round(acc[i], read_le<std::uint64_t>(s + 8 * i));
  };
  if (buffered_ > 0) {
    const std::size_t fill = buf_.size() - buffered_;
    std::memcpy(buf_.data() + buffered_, p, fill);
    stripe(buf_.data());
    p += fill;
    size -= fill;
  }
  for (; size >= buf_.size(); p += buf_.size(), size -= buf_.size()) stripe(p);
  acc_ = acc;
  if (size) std::memcpy(buf_.data(), p, size);
  buffered_ = size;
}

std::uint64_t Xxh64::digest() const noexcept {
  std::uint64_t h = kP5;
  if (total_ >= buf_.size()) {
    h = std::rotl(acc_[0], 1) + std::rotl(acc_[1], 7) + std::rotl(acc_[2], 12) +
        std::rotl(acc_[3], 18);
    for (const std::uint64_t a : acc_) h = xxh_merge(h, a);
  }
  h += total_;
  const std::uint8_t* p = buf_.data();
  std::size_t n = buffered_;
  for (; n >= 8; p += 8, n -= 8)
    h = std::rotl(h ^ xxh_round(0, read_le<std::uint64_t>(p)), 27) * kP1 + kP4;
  if (n >= 4) {
    h = std::rotl(h ^ (read_le<std::uint32_t>(p) * kP1), 23) * kP2 + kP3;
    p += 4;
    n -= 4;
  }
  for (; n > 0; ++p, --n) h = std::rotl(h ^ (*p * kP5), 11) * kP1;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

std::uint64_t xxh64(const void* data, std::size_t size) noexcept {
  Xxh64 h;
  h.update(data, size);
  return h.digest();
}

std::vector<std::uint8_t> serialize(const Checkpoint& ck) {
  const PayloadDigest d = digest_payload(ck);
  std::vector<std::uint8_t> out(kHeaderBytes + d.size);
  const HeaderBytes header = encode_header(d);
  std::memcpy(out.data(), header.data(), header.size());
  MemorySink sink{out.data() + kHeaderBytes};
  PayloadWriter w(sink);
  visit_payload(ck, w);
  return out;
}

Checkpoint deserialize(const std::uint8_t* data, std::size_t size) {
  const PayloadDigest d = decode_header(data, size);
  MemorySource src{data + kHeaderBytes};
  return read_payload(src, d);
}

void save(const Checkpoint& ck, const std::string& path) {
  const PayloadDigest d = digest_payload(ck);
  // Temp-then-rename: a crash mid-write never leaves a half checkpoint under
  // the final name, so the previous good one survives. Every failure removes
  // the temp file.
  const std::string tmp = path + ".tmp";
  std::unique_ptr<std::FILE, FileCloser> f(std::fopen(tmp.c_str(), "wb"));
  if (!f) LTS_RAISE(Error, "cannot open '" << tmp << "' for writing: " << std::strerror(errno));
  try {
    FileSink sink{f.get(), tmp};
    const HeaderBytes header = encode_header(d);
    sink.put(header.data(), header.size());
    PayloadWriter w(sink);
    visit_payload(ck, w);
  } catch (...) {
    f.reset();
    std::remove(tmp.c_str());
    throw;
  }
  if (std::fclose(f.release()) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    LTS_RAISE(Error, "closing '" << tmp << "' failed: " << std::strerror(err));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    LTS_RAISE(Error, "cannot rename '" << tmp << "' to '" << path << "': " << std::strerror(err));
  }
}

Checkpoint load(const std::string& path) {
  try {
    std::error_code ec;
    const std::uintmax_t total = std::filesystem::file_size(path, ec);
    if (ec) LTS_RAISE(CorruptInput, "cannot open checkpoint file: " << ec.message());
    const std::unique_ptr<std::FILE, FileCloser> f(std::fopen(path.c_str(), "rb"));
    if (!f) LTS_RAISE(CorruptInput, "cannot open checkpoint file: " << std::strerror(errno));
    HeaderBytes header{};
    const std::size_t want = std::min<std::uintmax_t>(total, kHeaderBytes);
    if (std::fread(header.data(), 1, want, f.get()) != want)
      LTS_RAISE(CorruptInput, "cannot read the checkpoint header");
    const PayloadDigest d = decode_header(header.data(), total);
    FileSource src{f.get()};
    return read_payload(src, d);
  } catch (const CheckpointMismatch& e) {
    // Rethrow with the path but keep the type — the arch-mismatch diagnostic
    // must stay catchable as CheckpointMismatch, not decay to CorruptInput.
    LTS_RAISE(CheckpointMismatch, path << ": " << e.what());
  } catch (const CorruptInput& e) {
    LTS_RAISE(CorruptInput, path << ": " << e.what());
  }
}

} // namespace ltswave::resilience
