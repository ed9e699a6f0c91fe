#include "store/blob.hpp"

#include <cstring>

#include "util/rng.hpp"
#include "util/strf.hpp"

namespace m3d::store {

uint64_t fnv1a64(std::string_view s) { return util::hash64(s); }

std::string key_hex(uint64_t key) {
  return util::strf("%016llx", static_cast<unsigned long long>(key));
}

void BlobWriter::raw(const void* p, size_t n) {
  buf_.append(static_cast<const char*>(p), n);
}

void BlobWriter::str(std::string_view s) {
  u32(static_cast<uint32_t>(s.size()));
  raw(s.data(), s.size());
}

bool BlobReader::raw(void* p, size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  std::memcpy(p, data_.data() + pos_, n);
  pos_ += n;
  return true;
}

bool BlobReader::u8(uint8_t* v) {
  if (!ok_ || pos_ >= data_.size()) {
    ok_ = false;
    return false;
  }
  *v = static_cast<uint8_t>(data_[pos_++]);
  return true;
}

bool BlobReader::str(std::string* s) {
  uint32_t n = 0;
  if (!u32(&n)) return false;
  if (data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  s->assign(data_.data() + pos_, n);
  pos_ += n;
  return true;
}

}  // namespace m3d::store
