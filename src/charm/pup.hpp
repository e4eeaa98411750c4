#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

/// \file pup.hpp
/// PUP-lite: the pack/unpack serialisation Charm++ applies to entry-method
/// parameters, reduced to the types the reproduction needs. Real Charm++
/// generates this from .ci files; here the entry-method templates drive it.
///
/// Supported: trivially copyable values, std::vector of trivially copyable
/// elements, std::string, and inline byte payloads (BytesRef on the sender,
/// Bytes on the receiver). GPU buffers never flow through here — they are
/// handled by the CkDeviceBuffer machinery (paper Section III-B).
///
/// Phantom bytes: a packed field whose source lives in unbacked
/// (simulation-only) memory has no bytes to copy. The packer then adds its
/// length to the wire length only (zeros()), and the field's own header says
/// so — a `valid` flag for Bytes, Buffer::Mode::Phantom for ck::Buffer — so
/// the receiver knows the bytes are absent and every later field still
/// unpacks at the right offset. Timing is charged on the wire length, which
/// is exactly what it would be had the bytes been carried.

namespace cux::ck {

/// Receive side of an inline byte payload: `len` bytes on the wire, present
/// in `data` only when `valid`.
struct Bytes {
  std::vector<std::byte> data;
  std::uint64_t len = 0;
  bool valid = true;
};

/// Send side of an inline byte payload: packs `len` bytes straight from
/// `src` (one copy), or — when `valid` is false — as phantom bytes.
struct BytesRef {
  const void* src = nullptr;
  std::uint64_t len = 0;
  bool valid = true;
};

template <class T>
concept TriviallyPackable = std::is_trivially_copyable_v<T> && !std::is_pointer_v<T>;

template <class T>
struct IsPupVector : std::false_type {};
template <class T, class A>
struct IsPupVector<std::vector<T, A>> : std::bool_constant<TriviallyPackable<T>> {};

template <class T>
concept Packable = TriviallyPackable<T> || IsPupVector<T>::value ||
                   std::is_same_v<T, std::string> || std::is_same_v<T, Bytes>;

/// Bytes that pack(v) appends to the buffer (phantom bytes excluded); used
/// to size a Packer once.
template <TriviallyPackable T>
[[nodiscard]] constexpr std::size_t packedSize(const T&) noexcept {
  return sizeof(T);
}
template <class T, class A>
  requires TriviallyPackable<T>
[[nodiscard]] std::size_t packedSize(const std::vector<T, A>& v) noexcept {
  return sizeof(std::uint64_t) + v.size() * sizeof(T);
}
[[nodiscard]] inline std::size_t packedSize(const std::string& s) noexcept {
  return sizeof(std::uint64_t) + s.size();
}
[[nodiscard]] inline std::size_t packedSize(const BytesRef& b) noexcept {
  return sizeof(std::uint64_t) + 1 + (b.valid ? b.len : 0);
}

class Packer {
 public:
  Packer() = default;
  /// A packer whose buffer starts with `header_bytes` reserved (zeroed) for
  /// a transport header the caller fills in later, with room for `reserve`
  /// bytes in total so packing never reallocates.
  Packer(std::size_t header_bytes, std::size_t reserve) {
    buf_.reserve(reserve > header_bytes ? reserve : header_bytes);
    buf_.resize(header_bytes);
  }

  template <TriviallyPackable T>
  void pack(const T& v) {
    raw(&v, sizeof(T));
  }

  template <class T, class A>
    requires TriviallyPackable<T>
  void pack(const std::vector<T, A>& v) {
    const std::uint64_t n = v.size();
    pack(n);
    raw(v.data(), n * sizeof(T));
    bulk_bytes_ += n * sizeof(T);
  }

  void pack(const std::string& s) {
    const std::uint64_t n = s.size();
    pack(n);
    raw(s.data(), n);
    bulk_bytes_ += n;
  }

  /// Length, validity flag, then the bytes — or, for an invalid source, the
  /// same length as phantom bytes.
  void pack(const BytesRef& b) {
    pack(b.len);
    pack(static_cast<std::uint8_t>(b.valid ? 1 : 0));
    if (b.valid) {
      raw(b.src, b.len);
    } else {
      zeros(b.len);
    }
    bulk_bytes_ += b.len;
  }

  void raw(const void* p, std::size_t n) {
    if (n == 0) return;
    const std::size_t off = buf_.size();
    buf_.resize(off + n);
    std::memcpy(buf_.data() + off, p, n);
  }

  /// Accounts `n` placeholder bytes for unbacked source data: they count in
  /// wireSize() but are not materialised. The caller records in the field's
  /// own header that they are phantom.
  void zeros(std::size_t n) noexcept { phantom_bytes_ += n; }

  [[nodiscard]] std::vector<std::byte> take() noexcept { return std::move(buf_); }
  /// Bytes actually in the buffer.
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  /// Phantom bytes accounted by zeros().
  [[nodiscard]] std::uint64_t phantomBytes() const noexcept { return phantom_bytes_; }
  /// Length on the wire: the buffer plus the phantom bytes.
  [[nodiscard]] std::uint64_t wireSize() const noexcept { return buf_.size() + phantom_bytes_; }
  /// Bytes that correspond to bulk payload copies (for memcpy cost charging).
  [[nodiscard]] std::uint64_t bulkBytes() const noexcept { return bulk_bytes_; }

 private:
  std::vector<std::byte> buf_;
  std::uint64_t bulk_bytes_ = 0;
  std::uint64_t phantom_bytes_ = 0;
};

/// Reads fields back in packing order. Reading or skipping past the end of
/// the data (a short or malformed message) throws std::out_of_range; phantom
/// fields occupy no bytes, so they are never skipped.
class Unpacker {
 public:
  explicit Unpacker(std::span<const std::byte> data, std::size_t offset = 0)
      : data_(data), off_(offset) {
    if (offset > data.size()) throw std::out_of_range("ck::Unpacker: offset past end of message");
  }

  template <class T>
  [[nodiscard]] T unpack() {
    if constexpr (TriviallyPackable<T>) {
      T v{};
      read(&v, sizeof(T));
      return v;
    } else if constexpr (IsPupVector<T>::value) {
      const auto n = unpack<std::uint64_t>();
      need(n, sizeof(typename T::value_type));
      T v(n);
      read(v.data(), n * sizeof(typename T::value_type));
      return v;
    } else if constexpr (std::is_same_v<T, Bytes>) {
      Bytes b;
      b.len = unpack<std::uint64_t>();
      b.valid = unpack<std::uint8_t>() != 0;
      if (b.valid) {
        need(b.len, 1);
        b.data.resize(b.len);
        read(b.data.data(), b.len);
      }
      return b;
    } else {
      static_assert(std::is_same_v<T, std::string>, "type not packable");
      const auto n = unpack<std::uint64_t>();
      need(n, 1);
      std::string s(n, '\0');
      read(s.data(), n);
      return s;
    }
  }

  void read(void* p, std::size_t n) {
    need(n, 1);
    if (n > 0) std::memcpy(p, data_.data() + off_, n);
    off_ += n;
  }

  void skip(std::size_t n) {
    need(n, 1);
    off_ += n;
  }

  [[nodiscard]] std::size_t offset() const noexcept { return off_; }
  [[nodiscard]] const std::byte* cursor() const noexcept { return data_.data() + off_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - off_; }

 private:
  /// Throws unless `count` elements of `elem` bytes remain (overflow-safe:
  /// a count read from a malformed message can be anything).
  void need(std::uint64_t count, std::size_t elem) const {
    if (count > (data_.size() - off_) / elem) {
      throw std::out_of_range("ck::Unpacker: read past end of message");
    }
  }

  std::span<const std::byte> data_;
  std::size_t off_;
};

}  // namespace cux::ck
