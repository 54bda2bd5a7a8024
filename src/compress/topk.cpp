#include "compress/topk.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <span>

#include "common/error.h"
#include "common/thread_pool.h"

namespace lowdiff {
namespace {

/// Smallest chunk worth a histogram pass on its own thread: below it the
/// pool hand-off costs more than the chunk's scan.
constexpr std::size_t kParallelThreshold = std::size_t{1} << 15;

/// Packs the selection order into one integer so selection is a plain u64
/// compare: high 32 bits are the magnitude bits of the float (sign cleared
/// — for non-NaN values integer order on these bits equals fabs order, and
/// ±0.0 tie), low 32 bits are ~index so that on equal magnitudes the LOWER
/// index wins under descending key order.  A total order has a unique
/// top-k set, so any chunking of the selection produces bit-identical
/// output.
inline std::uint32_t mag_bits(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits & 0x7FFFFFFFu;  // sign cleared: integer order == fabs order
}

inline std::uint64_t pack_key(float v, std::uint32_t index) {
  return (static_cast<std::uint64_t>(mag_bits(v)) << 32) |
         static_cast<std::uint64_t>(~index);
}

inline std::uint32_t unpack_index(std::uint64_t key) {
  return ~static_cast<std::uint32_t>(key);
}

/// Histogram (radix) top-k selection, chunk-parallel when a pool is given.
///
/// Two linear passes instead of an O(n) nth_element with its data
/// movement: pass 1 histograms the magnitude's high 15 bits per chunk;
/// the folded histogram locates the threshold bucket t such that buckets
/// above t hold fewer than k entries but t's entries push past k.  Pass 2
/// collects every index above t (already the top of the order) plus the
/// full packed keys inside t, from which the remaining winners are picked
/// by nth_element on that (normally tiny) bucket.  Without a pool (or a
/// gradient too small to split) the one chunk runs inline.
void select_topk(std::span<const float> grad, std::size_t k, ThreadPool* pool,
                 std::vector<std::uint32_t>& indices) {
  const std::size_t n = grad.size();
  const std::size_t chunks =
      pool == nullptr ? 1
                      : std::clamp<std::size_t>(n / kParallelThreshold, 1,
                                                pool->size());
  const std::size_t per = (n + chunks - 1) / chunks;
  constexpr std::size_t kBuckets = std::size_t{1} << 15;  // mag_bits >> 16

  auto chunk_lo = [&](std::size_t c) { return std::min(n, c * per); };
  auto chunk_hi = [&](std::size_t c) { return std::min(n, c * per + per); };
  auto for_each_chunk = [&](const std::function<void(std::size_t)>& f) {
    if (chunks == 1) {
      f(0);
    } else {
      pool->parallel_for(0, chunks, f);
    }
  };

  // Pass 1: per-chunk bucket counts.  Each chunk's histogram is 128 KiB,
  // so the storage is kept per calling thread: a fresh allocation that
  // size is an mmap/munmap pair with its page faults under glibc's mmap
  // threshold, which cost more than the whole selection on small
  // gradients.  The chunk lambdas must use the span, not the thread_local
  // itself, which would name the pool worker's own (empty) copy.
  thread_local std::vector<std::uint32_t> hist_storage;
  hist_storage.assign(chunks * kBuckets, 0);
  const std::span<std::uint32_t> hist(hist_storage);
  for_each_chunk([&](std::size_t c) {
    std::uint32_t* h = hist.data() + c * kBuckets;
    const std::size_t hi = chunk_hi(c);
    for (std::size_t i = chunk_lo(c); i < hi; ++i) {
      ++h[mag_bits(grad[i]) >> 16];
    }
  });

  // Threshold bucket: buckets above t hold k_above < k entries in total.
  std::size_t t = 0, k_above = 0;
  for (std::size_t b = kBuckets; b-- > 0;) {
    std::size_t in_bucket = 0;
    for (std::size_t c = 0; c < chunks; ++c) in_bucket += hist[c * kBuckets + b];
    if (k_above + in_bucket >= k) {
      t = b;
      break;
    }
    k_above += in_bucket;
  }
  const std::size_t need = k - k_above;  // winners still owed by bucket t

  // Exact output slots per chunk from the histograms: indices above t land
  // ascending (chunks are ordered, scans are ascending), no concatenation.
  std::vector<std::size_t> above_off(chunks + 1, 0), t_off(chunks + 1, 0);
  for (std::size_t c = 0; c < chunks; ++c) {
    std::size_t above = 0;
    for (std::size_t b = t + 1; b < kBuckets; ++b) above += hist[c * kBuckets + b];
    above_off[c + 1] = above_off[c] + above;
    t_off[c + 1] = t_off[c] + hist[c * kBuckets + t];
  }

  indices.resize(k);
  std::vector<std::uint64_t> tkeys(t_off[chunks]);
  for_each_chunk([&](std::size_t c) {
    std::uint32_t* above_out = indices.data() + above_off[c];
    std::uint64_t* t_out = tkeys.data() + t_off[c];
    const std::size_t hi = chunk_hi(c);
    for (std::size_t i = chunk_lo(c); i < hi; ++i) {
      const std::uint32_t bucket = mag_bits(grad[i]) >> 16;
      if (bucket > t) {
        *above_out++ = static_cast<std::uint32_t>(i);
      } else if (bucket == t) {
        *t_out++ = pack_key(grad[i], static_cast<std::uint32_t>(i));
      }
    }
  });

  if (need < tkeys.size()) {
    std::nth_element(tkeys.begin(),
                     tkeys.begin() + static_cast<std::ptrdiff_t>(need) - 1,
                     tkeys.end(), std::greater<std::uint64_t>());
  }
  for (std::size_t i = 0; i < need; ++i) {
    indices[k_above + i] = unpack_index(tkeys[i]);
  }
  std::sort(indices.begin(), indices.end());  // ascending coordinates on the wire
}

}  // namespace

TopKCompressor::TopKCompressor(double ratio) : ratio_(ratio) {
  LOWDIFF_ENSURE(ratio > 0.0 && ratio <= 1.0, "top-k ratio must be in (0, 1]");
}

std::size_t TopKCompressor::k_for(std::size_t n) const {
  if (n == 0) return 0;
  const auto k = static_cast<std::size_t>(std::llround(ratio_ * static_cast<double>(n)));
  return std::clamp<std::size_t>(k, 1, n);
}

CompressedGrad TopKCompressor::compress(std::span<const float> grad,
                                        std::uint64_t iteration) const {
  CompressedGrad out;
  out.scheme = CompressionScheme::kTopK;
  out.dense_size = grad.size();
  out.iteration = iteration;
  const std::size_t k = k_for(grad.size());
  if (k == 0) return out;

  ThreadPool* pool = thread_pool();
  select_topk(grad, k, pool, out.indices);

  out.values.resize(k);
  auto gather = [&](std::size_t i) { out.values[i] = grad[out.indices[i]]; };
  if (pool != nullptr && pool->size() > 1 && k >= kParallelThreshold) {
    pool->parallel_for(0, k, gather);
  } else {
    for (std::size_t i = 0; i < k; ++i) gather(i);
  }
  return out;
}

std::string TopKCompressor::name() const {
  return "topk(rho=" + std::to_string(ratio_) + ")";
}

}  // namespace lowdiff
