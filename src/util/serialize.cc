#include "util/serialize.h"

#include <istream>
#include <ostream>

namespace ams::util {

void BinaryWriter::WriteRaw(const void* data, size_t n) {
  os_->write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
}

void BinaryWriter::WriteU32(uint32_t v) { WriteRaw(&v, sizeof(v)); }
void BinaryWriter::WriteI32(int32_t v) { WriteRaw(&v, sizeof(v)); }

void BinaryWriter::WriteFloats(const float* data, uint64_t n) {
  WriteRaw(&n, sizeof(n));
  WriteRaw(data, n * sizeof(float));
}

bool BinaryWriter::ok() const { return os_->good(); }

BinaryReader::BinaryReader(std::istream* is) : is_(is) {
  const std::istream::pos_type start = is_->tellg();
  if (start == std::istream::pos_type(-1)) return;  // cannot seek: no bound
  const std::istream::pos_type end = is_->seekg(0, std::ios::end).tellg();
  is_->clear();  // undo a failed seek: the stream was good at `start`
  is_->seekg(start);
  if (end != std::istream::pos_type(-1) && end >= start) {
    bytes_left_ = static_cast<uint64_t>(end - start);
  }
}

bool BinaryReader::ReadRaw(void* data, size_t n) {
  if (!ok_) return false;
  if (n > bytes_left_) {
    ok_ = false;
    return false;
  }
  is_->read(static_cast<char*>(data), static_cast<std::streamsize>(n));
  if (static_cast<size_t>(is_->gcount()) != n) ok_ = false;
  bytes_left_ -= n;
  return ok_;
}

uint32_t BinaryReader::ReadU32() {
  uint32_t v = 0;
  ReadRaw(&v, sizeof(v));
  return ok_ ? v : 0;
}

int32_t BinaryReader::ReadI32() {
  int32_t v = 0;
  ReadRaw(&v, sizeof(v));
  return ok_ ? v : 0;
}

bool BinaryReader::ReadFloats(float* out, uint64_t n) {
  uint64_t length = 0;
  if (ReadRaw(&length, sizeof(length)) && length != n) ok_ = false;
  return ReadRaw(out, n * sizeof(float));
}

}  // namespace ams::util
