#include "util/serialize.h"

#include <istream>
#include <ostream>

#include "util/check.h"

namespace ams::util {

void BinaryWriter::WriteRaw(const void* data, size_t n) {
  os_->write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
}

void BinaryWriter::WriteU32(uint32_t v) { WriteRaw(&v, sizeof(v)); }
void BinaryWriter::WriteU64(uint64_t v) { WriteRaw(&v, sizeof(v)); }
void BinaryWriter::WriteI32(int32_t v) { WriteRaw(&v, sizeof(v)); }
void BinaryWriter::WriteF32(float v) { WriteRaw(&v, sizeof(v)); }
void BinaryWriter::WriteF64(double v) { WriteRaw(&v, sizeof(v)); }

void BinaryWriter::WriteString(const std::string& s) {
  WriteU64(s.size());
  WriteRaw(s.data(), s.size());
}

void BinaryWriter::WriteFloatVector(const std::vector<float>& v) {
  WriteFloats(v.data(), v.size());
}

void BinaryWriter::WriteFloats(const float* data, uint64_t n) {
  WriteU64(n);
  WriteRaw(data, n * sizeof(float));
}

void BinaryWriter::WriteDoubleVector(const std::vector<double>& v) {
  WriteU64(v.size());
  WriteRaw(v.data(), v.size() * sizeof(double));
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

uint64_t BinaryReader::ReadU64() {
  uint64_t v = 0;
  ReadRaw(&v, sizeof(v));
  return ok_ ? v : 0;
}

int32_t BinaryReader::ReadI32() {
  int32_t v = 0;
  ReadRaw(&v, sizeof(v));
  return ok_ ? v : 0;
}

float BinaryReader::ReadF32() {
  float v = 0;
  ReadRaw(&v, sizeof(v));
  return ok_ ? v : 0;
}

double BinaryReader::ReadF64() {
  double v = 0;
  ReadRaw(&v, sizeof(v));
  return ok_ ? v : 0;
}

std::string BinaryReader::ReadString() {
  const uint64_t n = ReadU64();
  if (!ok_ || n > bytes_left_) {
    ok_ = false;
    return {};
  }
  std::string s(n, '\0');
  ReadRaw(s.data(), n);
  return ok_ ? s : std::string();
}

std::vector<float> BinaryReader::ReadFloatVector() {
  const uint64_t n = ReadU64();
  if (!ok_ || n > bytes_left_ / sizeof(float)) {
    ok_ = false;
    return {};
  }
  std::vector<float> v(n);
  ReadRaw(v.data(), n * sizeof(float));
  return ok_ ? v : std::vector<float>();
}

bool BinaryReader::ReadFloats(float* out, uint64_t n) {
  if (ReadU64() != n) ok_ = false;
  return ReadRaw(out, n * sizeof(float));
}

std::vector<double> BinaryReader::ReadDoubleVector() {
  const uint64_t n = ReadU64();
  if (!ok_ || n > bytes_left_ / sizeof(double)) {
    ok_ = false;
    return {};
  }
  std::vector<double> v(n);
  ReadRaw(v.data(), n * sizeof(double));
  return ok_ ? v : std::vector<double>();
}

}  // namespace ams::util
