// 8-bit quantized serving of a trained RNE model (extension beyond the
// paper). Table IV's story is the index-size/quality trade-off; per-dimension
// affine quantization of the |V| x d float matrix cuts the serving footprint
// 4x while the L1 distance remains a per-dimension sum:
//   |x_a - x_b| = step_d * |q_a - q_b|      (same step within a dimension)
// so queries stay a single pass over two byte rows.
//
// The code matrix is served from owned heap storage (default) or zero-copy
// from an mmap'd index file.
#ifndef RNE_CORE_QUANTIZED_H_
#define RNE_CORE_QUANTIZED_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/kernels.h"
#include "core/rne.h"
#include "util/mmap_file.h"

namespace rne {

/// Quantized read-only copy of an Rne model's serving matrix (L1 only).
class QuantizedRne {
 public:
  /// Quantizes model.vertex_embeddings() with per-dimension min/step.
  /// The model must use the L1 metric (p == 1).
  explicit QuantizedRne(const Rne& model);

  /// Approximate shortest-path distance in the edge-weight unit.
  double Query(VertexId s, VertexId t) const {
    RNE_DCHECK(s < rows_ && t < rows_);
    return QuantizedL1Kernel(RowPtr(s), RowPtr(t), steps_.data(), dim_) *
           scale_;
  }

  size_t NumVertices() const { return rows_; }
  size_t dim() const { return dim_; }
  /// Serving footprint: |V| x d bytes + 1 step per dimension.
  size_t IndexBytes() const {
    return rows_ * dim_ * sizeof(uint8_t) + steps_.size() * sizeof(float);
  }

  /// True when the code matrix is a view into an mmap'd file.
  bool IsMapped() const { return mapping_ != nullptr; }

  /// Saves the code matrix in an aligned section.
  Status Save(const std::string& path) const;
  /// Loads a model. kHeap reads the codes into owned storage; kMmap serves
  /// them zero-copy from a read-only mapping. Both verify every checksum
  /// before returning.
  static StatusOr<QuantizedRne> Load(const std::string& path,
                                     LoadMode mode = LoadMode::kHeap);

 private:
  QuantizedRne() = default;

  const uint8_t* RowPtr(VertexId v) const {
    return (codes_view_ != nullptr ? codes_view_ : codes_.data()) + v * dim_;
  }
  Status ParseMeta(BinaryReader& r, const std::string& path);

  size_t rows_ = 0;
  size_t dim_ = 0;
  double scale_ = 1.0;               // model's distance de-normalization
  std::vector<float> steps_;         // per-dimension quantization step
  std::vector<uint8_t> codes_;       // row-major |V| x d (heap loads)
  const uint8_t* codes_view_ = nullptr;  // mmap loads: view into mapping_
  std::shared_ptr<const MappedEnvelope> mapping_;
};

}  // namespace rne

#endif  // RNE_CORE_QUANTIZED_H_
