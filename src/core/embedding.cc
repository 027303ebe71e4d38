#include "core/embedding.h"

#include <cmath>

namespace rne {

void EmbeddingMatrix::RandomInit(Rng& rng, double scale) {
  RNE_DCHECK(view_ == nullptr);
  for (float& x : data_) {
    x = static_cast<float>(rng.UniformReal(-scale, scale));
  }
}

double EmbeddingMatrix::L1Norm() const {
  const float* p = raw();
  double s = 0.0;
  for (size_t i = 0, n = rows_ * dim_; i < n; ++i) {
    s += std::abs(static_cast<double>(p[i]));
  }
  return s;
}

void EmbeddingMatrix::WriteMeta(BinaryWriter& w) const {
  w.WritePod<uint64_t>(rows_);
  w.WritePod<uint64_t>(dim_);
}

bool EmbeddingMatrix::ReadMeta(BinaryReader& r, uint64_t section_bytes) {
  uint64_t rows = 0, dim = 0;
  if (!r.ReadPod(&rows) || !r.ReadPod(&dim)) return false;
  // The section table (CRC-protected, extent-bounded at open) is the
  // authority on the data size; corrupt dimension fields fail this
  // cross-check instead of driving a huge allocation.
  if (dim != 0 && rows > section_bytes / sizeof(float) / dim) return false;
  if (rows * dim * sizeof(float) != section_bytes) return false;
  rows_ = rows;
  dim_ = dim;
  data_.clear();
  view_ = nullptr;
  return true;
}

float* EmbeddingMatrix::AllocateOwned(size_t rows, size_t dim) {
  rows_ = rows;
  dim_ = dim;
  view_ = nullptr;
  data_.assign(rows * dim, 0.0f);
  return data_.data();
}

}  // namespace rne
