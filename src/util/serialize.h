#ifndef AMS_UTIL_SERIALIZE_H_
#define AMS_UTIL_SERIALIZE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ams::util {

/// Little binary writer for agent checkpoints and cached artifacts.
/// Format: raw little-endian PODs; vectors/strings are length-prefixed (u64).
class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream* os) : os_(os) {}

  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI32(int32_t v);
  void WriteF32(float v);
  void WriteF64(double v);
  void WriteString(const std::string& s);
  void WriteFloatVector(const std::vector<float>& v);
  /// `n` floats from `data` in WriteFloatVector's format (u64 length, then
  /// the floats), with no vector in between.
  void WriteFloats(const float* data, uint64_t n);
  void WriteDoubleVector(const std::vector<double>& v);

  /// True if all writes so far succeeded.
  bool ok() const;

 private:
  void WriteRaw(const void* data, size_t n);
  std::ostream* os_;
};

/// Counterpart reader. After any failed/short read, ok() turns false and all
/// subsequent reads return zero values; callers check ok() once at the end.
///
/// Lengths read from the input are untrusted: a vector or string whose
/// length prefix claims more bytes than the stream has left fails the read
/// before anything is allocated, so a corrupt prefix costs a failed load,
/// not an 8 GB allocation. The bound is measured once at construction by
/// seeking to the end; a stream that cannot seek has no known bound.
class BinaryReader {
 public:
  explicit BinaryReader(std::istream* is);

  uint32_t ReadU32();
  uint64_t ReadU64();
  int32_t ReadI32();
  float ReadF32();
  double ReadF64();
  std::string ReadString();
  std::vector<float> ReadFloatVector();
  /// Reads a float vector written for exactly `n` floats straight into
  /// `out`: a length prefix other than `n` fails the read before any float
  /// is read. Returns ok().
  bool ReadFloats(float* out, uint64_t n);
  std::vector<double> ReadDoubleVector();

  bool ok() const { return ok_; }

  /// Bytes between the read position and the end of the stream (UINT64_MAX
  /// when the stream cannot seek). Loaders check the sizes a header implies
  /// against it before allocating anything.
  uint64_t bytes_left() const { return bytes_left_; }

 private:
  bool ReadRaw(void* data, size_t n);
  std::istream* is_;
  bool ok_ = true;
  uint64_t bytes_left_ = UINT64_MAX;
};

}  // namespace ams::util

#endif  // AMS_UTIL_SERIALIZE_H_
