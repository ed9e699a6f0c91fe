// Bit-exact binary artifact codec for the content-addressed store
// (store/store.hpp). Doubles are stored as raw IEEE-754 bit patterns
// (memcpy, never text), so a decoded artifact feeds the flow the *same*
// numbers that produced it — the store's byte-identity contract (a store-hit
// flow emits the same canonical report bytes as a cold flow) depends on it.
// Values use the host representation: the store is a single-host cache (see
// store.hpp), never a portable interchange format.
//
// BlobReader is fully bounds-checked and never throws: any out-of-range or
// oversized read trips the sticky ok() flag and every later read fails, so
// a truncated or corrupted blob decodes to "no" rather than UB — the
// crash-consistency tests feed it deliberately torn entries.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace m3d::store {

/// FNV-1a 64-bit (util::hash64): blob checksums and store keys. Entry names
/// on disk are this hash, so a change to it orphans every stored entry.
uint64_t fnv1a64(std::string_view s);

/// Lower-case 16-digit hex (store entry filename stem).
std::string key_hex(uint64_t key);

class BlobWriter {
 public:
  void u8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(uint32_t v) { raw(&v, sizeof v); }
  void u64(uint64_t v) { raw(&v, sizeof v); }
  void i64(int64_t v) { raw(&v, sizeof v); }
  void i32(int32_t v) { raw(&v, sizeof v); }
  /// Raw bit pattern, so NaN payloads and signed zeros round-trip exactly.
  void f64(double v) { raw(&v, sizeof v); }
  void str(std::string_view s);

  const std::string& bytes() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  void raw(const void* p, size_t n);
  std::string buf_;
};

class BlobReader {
 public:
  explicit BlobReader(std::string_view data) : data_(data) {}

  bool u8(uint8_t* v);
  bool u32(uint32_t* v) { return raw(v, sizeof *v); }
  bool u64(uint64_t* v) { return raw(v, sizeof *v); }
  bool i64(int64_t* v) { return raw(v, sizeof *v); }
  bool i32(int32_t* v) { return raw(v, sizeof *v); }
  bool f64(double* v) { return raw(v, sizeof *v); }
  bool str(std::string* s);

  /// False once any read ran past the end (sticky).
  bool ok() const { return ok_; }
  /// True when every byte was consumed (trailing garbage is corruption).
  bool at_end() const { return ok_ && pos_ == data_.size(); }

 private:
  bool raw(void* p, size_t n);
  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace m3d::store
