#ifndef AMS_UTIL_SERIALIZE_H_
#define AMS_UTIL_SERIALIZE_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>

namespace ams::util {

/// Little binary writer for agent checkpoints.
/// Format: raw little-endian PODs; a float block is length-prefixed (u64).
class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream* os) : os_(os) {}

  void WriteU32(uint32_t v);
  void WriteI32(int32_t v);
  /// `n` floats from `data`, after their count as a u64.
  void WriteFloats(const float* data, uint64_t n);

  /// True if all writes so far succeeded.
  bool ok() const;

 private:
  void WriteRaw(const void* data, size_t n);
  std::ostream* os_;
};

/// Counterpart reader. After any failed/short read, ok() turns false and all
/// subsequent reads return zero values; callers check ok() once at the end.
///
/// The reader never allocates: float blocks land in the caller's buffer,
/// whose size the caller states, and a read that claims more bytes than the
/// stream has left fails before anything is read. The bound is measured
/// once at construction by seeking to the end; a stream that cannot seek
/// has no known bound.
class BinaryReader {
 public:
  explicit BinaryReader(std::istream* is);

  uint32_t ReadU32();
  int32_t ReadI32();
  /// Reads a float block written for exactly `n` floats straight into
  /// `out`: a length prefix other than `n` fails the read before any float
  /// is read. Returns ok().
  bool ReadFloats(float* out, uint64_t n);

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
