// Dense row-major embedding matrix (float32 storage, the paper's index).
#ifndef RNE_CORE_EMBEDDING_H_
#define RNE_CORE_EMBEDDING_H_

#include <cstddef>
#include <span>
#include <vector>

#include "util/macros.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace rne {

/// rows x dim matrix of float32, one row per embedded entity.
///
/// Storage is either owned (a vector, the default) or a borrowed read-only
/// view into memory managed elsewhere — e.g. a section of an mmap'd index
/// file (see View). View matrices answer every const query identically to
/// owned ones, which is what makes mmap-served models bit-identical to
/// heap-loaded ones; mutating a view is a programming error.
class EmbeddingMatrix {
 public:
  EmbeddingMatrix() = default;
  EmbeddingMatrix(size_t rows, size_t dim)
      : rows_(rows), dim_(dim), data_(rows * dim, 0.0f) {}

  /// Non-owning view over `rows * dim` floats; the caller keeps `data`
  /// alive (and unchanged) for the life of the matrix and any copies.
  static EmbeddingMatrix View(const float* data, size_t rows, size_t dim) {
    EmbeddingMatrix m;
    m.rows_ = rows;
    m.dim_ = dim;
    m.view_ = data;
    return m;
  }

  size_t rows() const { return rows_; }
  size_t dim() const { return dim_; }
  bool owns_storage() const { return view_ == nullptr; }

  std::span<float> Row(size_t i) {
    RNE_DCHECK(i < rows_ && view_ == nullptr);
    return {data_.data() + i * dim_, dim_};
  }
  std::span<const float> Row(size_t i) const {
    RNE_DCHECK(i < rows_);
    return {raw() + i * dim_, dim_};
  }

  /// Contiguous row-major storage (rows * dim floats).
  const float* raw() const { return view_ != nullptr ? view_ : data_.data(); }

  /// Uniform init in [-scale, scale].
  void RandomInit(Rng& rng, double scale);

  /// Sum of |entries| (used for the norm-sharing diagnostics of Sec IV-A).
  double L1Norm() const;

  size_t MemoryBytes() const { return rows_ * dim_ * sizeof(float); }

  /// Dimensions go in the metadata payload, the float data in an aligned
  /// section (written by the caller via BinaryWriter::AddSection).
  void WriteMeta(BinaryWriter& w) const;
  bool ReadMeta(BinaryReader& r, uint64_t section_bytes);

  /// Replaces storage with an owned, zeroed rows x dim buffer (used by heap
  /// loads before ReadSectionInto fills it).
  float* AllocateOwned(size_t rows, size_t dim);

 private:
  size_t rows_ = 0;
  size_t dim_ = 0;
  std::vector<float> data_;
  const float* view_ = nullptr;
};

}  // namespace rne

#endif  // RNE_CORE_EMBEDDING_H_
