#pragma once

/// \file topk_reference.h
/// The plain nth_element Top-K that TopKCompressor's histogram selection
/// must reproduce bit for bit: the k largest |v|, the lower index first on
/// equal magnitudes (so -0.0 ties +0.0), indices ascending on the wire.

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <vector>

#include "compress/compressed_grad.h"

namespace lowdiff::test_support {

inline CompressedGrad topk_reference(std::span<const float> grad, std::size_t k,
                                     std::uint64_t iteration) {
  CompressedGrad out;
  out.scheme = CompressionScheme::kTopK;
  out.dense_size = grad.size();
  out.iteration = iteration;
  if (k == 0) return out;
  std::vector<std::uint32_t> idx(grad.size());
  std::iota(idx.begin(), idx.end(), 0u);
  std::nth_element(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k) - 1,
                   idx.end(), [&](std::uint32_t a, std::uint32_t b) {
                     const float fa = std::fabs(grad[a]), fb = std::fabs(grad[b]);
                     return fa != fb ? fa > fb : a < b;
                   });
  idx.resize(k);
  std::sort(idx.begin(), idx.end());
  for (std::uint32_t i : idx) out.values.push_back(grad[i]);
  out.indices = std::move(idx);
  return out;
}

}  // namespace lowdiff::test_support
