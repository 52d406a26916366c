#ifndef DCP_STORE_CODEC_H_
#define DCP_STORE_CODEC_H_

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "storage/replica_store.h"
#include "storage/versioned_object.h"
#include "util/node_set.h"

namespace dcp::store {

/// CRC-32 (the reflected 0xEDB88320 polynomial — the one in zlib, gzip,
/// ext4 and everything else that says "crc32"). `seed` lets a frame's
/// checksum chain across header and payload without concatenating them.
uint32_t Crc32(const uint8_t* data, size_t len, uint32_t seed = 0);
inline uint32_t Crc32(const std::vector<uint8_t>& data, uint32_t seed = 0) {
  return Crc32(data.data(), data.size(), seed);
}

/// Little-endian, fixed-width serializer: the primitives under the Put
/// visitor below, and what the hand-written frames (WAL records, the
/// wire envelope, the checkpoint header) use directly.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Adopts `buf` and appends after its existing contents — callers can
  /// reserve framing headers up front or recycle pooled buffers (see
  /// util::BufferPool) so steady-state encodes reuse warm capacity
  /// instead of allocating. `Take()` hands the buffer back.
  explicit ByteWriter(std::vector<uint8_t> buf) : buf_(std::move(buf)) {}

  void U8(uint8_t v) { buf_.push_back(v); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
  }
  /// Length-prefixed byte string.
  void Bytes(const std::vector<uint8_t>& b) {
    U32(static_cast<uint32_t>(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  void Raw(const uint8_t* p, size_t n) { buf_.insert(buf_.end(), p, p + n); }
  /// Overwrites the four bytes at `at` (a length written before the
  /// bytes it counts).
  void PatchU32(size_t at, uint32_t v) {
    for (size_t i = 0; i < 4; ++i) {
      buf_[at + i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }

  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::vector<uint8_t> buf_;
};

/// Bounds-checked reader. A decode past the end (or a length prefix that
/// overruns the buffer) flips ok() to false and every subsequent read
/// returns a zero value; callers check ok() once at the end instead of
/// after every field. Recovery treats !ok() as a corrupt record.
class ByteReader {
 public:
  ByteReader(const uint8_t* p, size_t n) : p_(p), end_(p + n) {}
  explicit ByteReader(const std::vector<uint8_t>& b)
      : ByteReader(b.data(), b.size()) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return static_cast<size_t>(end_ - p_); }
  /// Marks the input malformed (a value no encoder writes).
  void Fail() { ok_ = false; }

  uint8_t U8() {
    if (!Need(1)) return 0;
    return *p_++;
  }
  bool Bool() { return U8() != 0; }
  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(*p_++) << (8 * i);
    return v;
  }
  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(*p_++) << (8 * i);
    return v;
  }
  std::vector<uint8_t> Bytes() {
    uint32_t n = U32();
    if (!Need(n)) return {};
    std::vector<uint8_t> out(p_, p_ + n);
    p_ += n;
    return out;
  }
  /// Zero-copy Bytes(): the returned view aliases the reader's buffer
  /// (valid only while that buffer lives). The wire decoder uses this
  /// for the per-message envelope strings so a received frame costs no
  /// temporary vector per field. Empty on bounds failure.
  std::string_view BytesView() {
    uint32_t n = U32();
    if (!Need(n)) return {};
    const char* start = reinterpret_cast<const char*>(p_);
    p_ += n;
    return std::string_view(start, n);
  }
  /// A reader over the next `n` bytes, which this one skips. Empty on
  /// bounds failure.
  ByteReader Sub(size_t n) {
    if (!Need(n)) return ByteReader(p_, 0);
    p_ += n;
    return ByteReader(p_ - n, n);
  }

 private:
  bool Need(size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const uint8_t* p_;
  const uint8_t* end_;
  bool ok_ = true;
};

// --- field lists ------------------------------------------------------------
//
// Every encoded type has one field list, run in both directions:
//
//   void Fields(auto& io, Of<T> auto& v) { io(v.a, v.b, ...); }
//
// `io` is a Put (encode) or a Get (decode) visitor; argument-dependent
// lookup finds the list, so it lives in the type's namespace (or this
// one) and outside any anonymous namespace. The vocabulary:
//   - integers as fixed-width little-endian, bool as one byte, doubles as
//     their bit pattern;
//   - enums as one byte, decoded only up to `EnumMax(E{})` (found by
//     argument-dependent lookup next to the enum);
//   - byte vectors, NodeSet and std::vector<T> as a u32 count followed
//     by the elements (a count larger than the bytes left is malformed);
//   - Blob{v}: v's encoding behind a u32 length;
//   - two trailers, decoded as absent when no bytes are left:
//     std::optional<T> (nothing, or (true, value)) and Tail{container}
//     (nothing when empty). A trailer is only ever the last field, and
//     a type that ends in one is itself last or nested in a Blob.

/// `Of<T> auto& v` binds a field list to T for both visitors: the encoder
/// passes a const T, the decoder a T.
template <typename U, typename T>
concept Of = std::same_as<std::remove_const_t<U>, T>;

/// A nested encoding behind its u32 byte length.
template <typename T>
struct Blob {
  T& value;
};
template <typename T>
Blob(T&) -> Blob<T>;

/// A container trailer: absent when the container is empty.
template <typename C>
struct Tail {
  C& value;
};
template <typename C>
Tail(C&) -> Tail<C>;

template <typename T>
inline constexpr bool kIsTrailer = false;
template <typename T>
inline constexpr bool kIsTrailer<std::optional<T>> = true;
template <typename C>
inline constexpr bool kIsTrailer<Tail<C>> = true;

/// True iff no field but the last is a trailer (checked per field list;
/// the nesting half of the rule is the author's).
template <typename... Ts>
constexpr bool TrailerIsLast() {
  constexpr bool trailer[] = {kIsTrailer<std::remove_cvref_t<Ts>>..., false};
  for (size_t i = 0; i + 1 < sizeof...(Ts); ++i) {
    if (trailer[i]) return false;
  }
  return true;
}

void Fields(auto& io, Of<storage::LockOwner> auto& o) {
  io(o.coordinator, o.operation_id);
}
void Fields(auto& io, Of<storage::Update> auto& u) {
  io(u.total, u.offset, u.bytes);
}

/// Encoding visitor: `Put{w}(a, b, ...)` appends the fields to `w`.
class Put {
 public:
  explicit Put(ByteWriter& w) : w_(w) {}

  template <typename... Ts>
  void operator()(const Ts&... fields) {
    static_assert(TrailerIsLast<Ts...>(), "a trailer must be the last field");
    (Field(fields), ...);
  }

 private:
  template <typename T>
  void Field(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      w_.Bool(v);
    } else if constexpr (std::is_enum_v<T>) {
      w_.U8(static_cast<uint8_t>(v));
    } else if constexpr (std::is_same_v<T, double>) {
      w_.U64(std::bit_cast<uint64_t>(v));
    } else if constexpr (std::is_integral_v<T>) {
      static_assert(sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8);
      if constexpr (sizeof(T) == 1) w_.U8(static_cast<uint8_t>(v));
      if constexpr (sizeof(T) == 4) w_.U32(static_cast<uint32_t>(v));
      if constexpr (sizeof(T) == 8) w_.U64(static_cast<uint64_t>(v));
    } else {
      Fields(*this, v);
    }
  }
  void Field(const std::vector<uint8_t>& b) { w_.Bytes(b); }
  void Field(const NodeSet& s) {
    Count(s.Size());
    for (NodeId id : s) w_.U32(id);
  }
  template <typename T>
  void Field(const std::vector<T>& v) {
    Count(v.size());
    for (const T& e : v) Field(e);
  }
  template <typename T>
  void Field(const std::optional<T>& o) {
    if (!o) return;
    w_.Bool(true);
    Field(*o);
  }
  template <typename C>
  void Field(const Tail<C>& t) {
    if (!t.value.empty()) Field(t.value);
  }
  template <typename T>
  void Field(const Blob<T>& b) {
    const size_t at = w_.size();
    w_.U32(0);
    Field(b.value);
    w_.PatchU32(at, static_cast<uint32_t>(w_.size() - at - 4));
  }
  void Count(size_t n) { w_.U32(static_cast<uint32_t>(n)); }

  ByteWriter& w_;
};

/// Decoding visitor: `Get{r}(a, b, ...)` overwrites the fields from `r`
/// and returns r.ok(). Malformed input clears ok() and leaves the fields
/// unspecified.
class Get {
 public:
  explicit Get(ByteReader& r) : r_(r) {}

  template <typename... Ts>
  bool operator()(Ts&&... fields) {
    static_assert(TrailerIsLast<Ts...>(), "a trailer must be the last field");
    (Field(fields), ...);
    return r_.ok();
  }

 private:
  template <typename T>
  void Field(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = r_.Bool();
    } else if constexpr (std::is_enum_v<T>) {
      const uint8_t b = r_.U8();
      if (b > static_cast<uint8_t>(EnumMax(T{}))) r_.Fail();
      v = static_cast<T>(b);
    } else if constexpr (std::is_same_v<T, double>) {
      v = std::bit_cast<double>(r_.U64());
    } else if constexpr (std::is_integral_v<T>) {
      if constexpr (sizeof(T) == 1) v = static_cast<T>(r_.U8());
      if constexpr (sizeof(T) == 4) v = static_cast<T>(r_.U32());
      if constexpr (sizeof(T) == 8) v = static_cast<T>(r_.U64());
    } else {
      Fields(*this, v);
    }
  }
  void Field(std::vector<uint8_t>& b) { b = r_.Bytes(); }
  void Field(NodeSet& s) {
    s.Clear();
    const uint32_t n = Count();
    for (uint32_t i = 0; i < n && r_.ok(); ++i) s.Insert(r_.U32());
  }
  template <typename T>
  void Field(std::vector<T>& v) {
    v.clear();
    const uint32_t n = Count();
    v.reserve(n);
    for (uint32_t i = 0; i < n && r_.ok(); ++i) Field(v.emplace_back());
  }
  template <typename T>
  void Field(std::optional<T>& o) {
    o.reset();
    if (r_.remaining() == 0) return;
    bool present = false;
    T v{};
    Field(present);
    Field(v);
    if (present) o = std::move(v);
  }
  template <typename C>
  void Field(Tail<C>& t) {
    if (r_.remaining() == 0) {
      t.value.clear();
    } else {
      Field(t.value);
    }
  }
  template <typename T>
  void Field(Blob<T>& b) {
    ByteReader nested = r_.Sub(r_.U32());
    if (!Get{nested}(b.value) || nested.remaining() != 0) r_.Fail();
  }
  /// An element count; every element takes at least one byte.
  uint32_t Count() {
    const uint32_t n = r_.U32();
    if (n > r_.remaining()) r_.Fail();
    return r_.ok() ? n : 0;
  }

  ByteReader& r_;
};

}  // namespace dcp::store

#endif  // DCP_STORE_CODEC_H_
