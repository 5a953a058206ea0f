//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary blob serialization (BlobEncoder / BlobDecoder).
///
/// This is the substrate under the Jump-Start profile-data package (paper
/// section IV-B).  The encoding is byte-oriented and position-independent:
/// LEB128 varints for integers, length-prefixed strings, and recursively
/// encoded containers.  Decoding is fully defensive -- a truncated or
/// corrupted blob flips the decoder into an error state instead of crashing,
/// which the reliability machinery of section VI depends on (a consumer
/// must survive a corrupt package and fall back to seeding itself).
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_SUPPORT_BLOB_H
#define JUMPSTART_SUPPORT_BLOB_H

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace jumpstart {

/// Serializes values into a growable byte buffer.
class BlobEncoder {
public:
  /// Appends an unsigned integer as LEB128.
  void writeVarint(uint64_t Value);

  /// Appends a signed integer using zig-zag + LEB128.
  void writeSignedVarint(int64_t Value);

  /// Appends a raw byte.
  void writeByte(uint8_t Byte) { Buffer.push_back(Byte); }

  /// Appends a fixed-width 64-bit little-endian value (used for the
  /// checksum trailer, which must not vary in size).
  void writeFixed64(uint64_t Value);

  /// Appends an IEEE double bit-for-bit.
  void writeDouble(double Value);

  /// Appends a length-prefixed string.
  void writeString(const std::string &S);

  /// Appends a vector of unsigned integers.
  void writeU64Vector(const std::vector<uint64_t> &Values);

  /// Appends a vector of 32-bit unsigned integers.
  void writeU32Vector(const std::vector<uint32_t> &Values);

  /// Appends a map with string keys and uint64 values, in key order so the
  /// encoding is deterministic regardless of the source container.
  void writeStringU64Map(const std::unordered_map<std::string, uint64_t> &M);

  const std::vector<uint8_t> &bytes() const { return Buffer; }
  std::vector<uint8_t> takeBytes() { return std::move(Buffer); }
  size_t size() const { return Buffer.size(); }

private:
  std::vector<uint8_t> Buffer;
};

/// Deserializes values from a byte buffer.
///
/// All read methods return a zero value and latch the error flag when the
/// input is malformed; callers check ok() once after decoding a section.
class BlobDecoder {
public:
  BlobDecoder(const uint8_t *Data, size_t Size)
      : Data(Data), Size(Size), Pos(0), Error(false) {}

  explicit BlobDecoder(const std::vector<uint8_t> &Bytes)
      : BlobDecoder(Bytes.data(), Bytes.size()) {}

  uint64_t readVarint();
  int64_t readSignedVarint();
  uint8_t readByte();
  uint64_t readFixed64();
  double readDouble();
  std::string readString();

  /// Reads a length-prefixed vector using \p ReadElem per element.
  template <typename T, typename Fn> std::vector<T> readVector(Fn ReadElem) {
    uint64_t N = readVarint();
    std::vector<T> Result;
    // Guard against hostile length prefixes: never reserve more elements
    // than bytes remaining (each element consumes at least one byte).
    if (N > remaining()) {
      markError();
      return Result;
    }
    Result.reserve(N);
    for (uint64_t I = 0; I < N && ok(); ++I)
      Result.push_back(ReadElem(*this));
    return Result;
  }

  std::vector<uint64_t> readU64Vector();
  std::vector<uint32_t> readU32Vector();
  std::unordered_map<std::string, uint64_t> readStringU64Map();

  /// \returns true if no decode error has occurred so far.
  bool ok() const { return !Error; }

  /// Forces the decoder into the error state (used when semantic
  /// validation of decoded values fails).
  void markError() { Error = true; }

  /// \returns true when every byte has been consumed without error.
  bool atEnd() const { return ok() && Pos == Size; }

  size_t remaining() const { return Size - Pos; }
  size_t position() const { return Pos; }

private:
  const uint8_t *Data;
  size_t Size;
  size_t Pos;
  bool Error;
};

} // namespace jumpstart

#endif // JUMPSTART_SUPPORT_BLOB_H
