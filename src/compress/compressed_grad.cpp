#include "compress/compressed_grad.h"

#include <cstring>

#include "common/error.h"

namespace lowdiff {
namespace {

/// Bounds-unchecked cursor over a pre-sized destination; the caller
/// (serialize_into) validates the total against serialized_size() once.
class Writer {
 public:
  explicit Writer(std::span<std::byte> out) : out_(out) {}

  template <typename T>
  void write(const T& value) {
    std::memcpy(out_.data() + pos_, &value, sizeof(T));
    pos_ += sizeof(T);
  }

  template <typename T>
  void write_vec(const std::vector<T>& v) {
    write(static_cast<std::uint64_t>(v.size()));
    if (!v.empty()) {
      std::memcpy(out_.data() + pos_, v.data(), v.size() * sizeof(T));
      pos_ += v.size() * sizeof(T);
    }
  }

  std::size_t written() const { return pos_; }

 private:
  std::span<std::byte> out_;
  std::size_t pos_ = 0;
};

class Reader {
 public:
  explicit Reader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  template <typename T>
  T read() {
    LOWDIFF_ENSURE(pos_ + sizeof(T) <= bytes_.size(), "truncated compressed gradient");
    T value;
    std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  template <typename T>
  std::vector<T> read_vec() {
    const auto n = read<std::uint64_t>();
    // Divide instead of multiplying: a lying count must not wrap n*sizeof(T)
    // past the check (and then throw from the allocation instead).
    LOWDIFF_ENSURE(n <= (bytes_.size() - pos_) / sizeof(T),
                   "truncated compressed gradient");
    std::vector<T> v(n);
    if (n > 0) std::memcpy(v.data(), bytes_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }

  bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

const char* to_string(CompressionScheme scheme) {
  switch (scheme) {
    case CompressionScheme::kDense: return "dense";
    case CompressionScheme::kTopK: return "topk";
    case CompressionScheme::kRandomK: return "randomk";
    case CompressionScheme::kQuant8: return "quant8";
  }
  return "?";
}

std::size_t CompressedGrad::byte_size() const {
  return sizeof(scheme) + sizeof(dense_size) + sizeof(iteration) +
         indices.size() * sizeof(std::uint32_t) + values.size() * sizeof(float) +
         scales.size() * sizeof(float) + codes.size();
}

std::size_t CompressedGrad::serialized_size() const {
  return byte_size() + 4 * sizeof(std::uint64_t);
}

std::vector<std::byte> CompressedGrad::serialize() const {
  std::vector<std::byte> out(serialized_size());
  const std::size_t written = serialize_into(out);
  LOWDIFF_ENSURE(written == out.size(), "serialized_size mismatch");
  return out;
}

std::size_t CompressedGrad::serialize_into(std::span<std::byte> out) const {
  LOWDIFF_ENSURE(out.size() >= serialized_size(),
                 "serialize_into buffer too small");
  Writer w(out);
  w.write(static_cast<std::uint8_t>(scheme));
  w.write(dense_size);
  w.write(iteration);
  w.write_vec(indices);
  w.write_vec(values);
  w.write_vec(scales);
  w.write_vec(codes);
  return w.written();
}

CompressedGrad CompressedGrad::deserialize(std::span<const std::byte> bytes) {
  Reader r(bytes);
  CompressedGrad g;
  g.scheme = static_cast<CompressionScheme>(r.read<std::uint8_t>());
  g.dense_size = r.read<std::uint64_t>();
  g.iteration = r.read<std::uint64_t>();
  g.indices = r.read_vec<std::uint32_t>();
  g.values = r.read_vec<float>();
  g.scales = r.read_vec<float>();
  g.codes = r.read_vec<std::uint8_t>();
  LOWDIFF_ENSURE(r.exhausted(), "trailing bytes after compressed gradient");
  LOWDIFF_ENSURE(g.indices.size() == g.values.size() || g.indices.empty(),
                 "index/value count mismatch");
  return g;
}

}  // namespace lowdiff
