#pragma once

/// \file compressor.h
/// Gradient compression interface (paper §2.3).  Implementations must be
/// deterministic for a given input (and iteration, for randomized schemes):
/// every worker compresses the same synchronized gradient to the same
/// payload, and recovery re-decompresses checkpointed payloads.

#include <memory>
#include <span>
#include <string>

#include "compress/compressed_grad.h"

namespace lowdiff {

class ThreadPool;

class Compressor {
 public:
  virtual ~Compressor() = default;

  /// Attaches an optional worker pool for chunk-parallel compression;
  /// nullptr runs on the calling thread.  The pool must outlive the
  /// compressor.  Determinism contract: for a given input the payload is
  /// bit-identical for every pool size, including none (DESIGN.md §6), so
  /// workers with different pool configurations still agree.  Clones
  /// inherit the pool.
  void set_thread_pool(ThreadPool* pool) noexcept { pool_ = pool; }
  ThreadPool* thread_pool() const noexcept { return pool_; }

  /// Compresses a dense gradient.  `iteration` seeds randomized schemes and
  /// is recorded in the payload for recovery ordering.
  virtual CompressedGrad compress(std::span<const float> grad,
                                  std::uint64_t iteration) const = 0;

  /// The payload format this compressor produces.
  virtual CompressionScheme scheme() const = 0;

  /// Reconstructs a dense gradient: `out` is fully overwritten (missing
  /// coordinates become zero).  payload.scheme must equal scheme() and
  /// out.size() payload.dense_size; the decoding is decompress_range's.
  void decompress(const CompressedGrad& payload, std::span<float> out) const;

  /// Nominal compressed/dense size ratio (the paper's ρ), used by the
  /// analytic cost models.
  virtual double nominal_ratio() const = 0;

  virtual std::string name() const = 0;
  virtual std::unique_ptr<Compressor> clone() const = 0;

 private:
  ThreadPool* pool_ = nullptr;
};

/// out += decompress(payload) without materializing a temporary dense
/// tensor for sparse payloads.  Works for any scheme.
void accumulate_decompressed(const Compressor& comp, const CompressedGrad& payload,
                             std::span<float> out);

/// out = decompress(payload)[lo, lo + out.size()) without materializing the
/// dense gradient: sparse payloads scatter only the coordinates in range.
/// The one decoder of every scheme; sharded recovery replay keeps a
/// slice-sized buffer per parameter range instead of a dense one.
void decompress_range(const CompressedGrad& payload, std::size_t lo,
                      std::span<float> out);

}  // namespace lowdiff
