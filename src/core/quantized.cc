#include "core/quantized.h"

#include <algorithm>
#include <cmath>

namespace rne {

QuantizedRne::QuantizedRne(const Rne& model) {
  RNE_CHECK_MSG(model.p() == 1.0,
                "quantized serving supports the L1 metric only");
  const EmbeddingMatrix& emb = model.vertex_embeddings();
  rows_ = emb.rows();
  dim_ = emb.dim();
  scale_ = model.scale();
  steps_.assign(dim_, 0.0f);
  codes_.assign(rows_ * dim_, 0);

  // Per-dimension range -> 255 levels.
  std::vector<float> mins(dim_, 0.0f);
  std::vector<float> maxs(dim_, 0.0f);
  for (size_t d = 0; d < dim_; ++d) {
    mins[d] = emb.Row(0)[d];
    maxs[d] = emb.Row(0)[d];
  }
  for (size_t v = 1; v < rows_; ++v) {
    const auto row = emb.Row(v);
    for (size_t d = 0; d < dim_; ++d) {
      mins[d] = std::min(mins[d], row[d]);
      maxs[d] = std::max(maxs[d], row[d]);
    }
  }
  for (size_t d = 0; d < dim_; ++d) {
    steps_[d] = std::max((maxs[d] - mins[d]) / 255.0f, 1e-12f);
  }
  for (size_t v = 0; v < rows_; ++v) {
    const auto row = emb.Row(v);
    uint8_t* out = codes_.data() + v * dim_;
    for (size_t d = 0; d < dim_; ++d) {
      const float code = std::round((row[d] - mins[d]) / steps_[d]);
      out[d] = static_cast<uint8_t>(std::clamp(code, 0.0f, 255.0f));
    }
  }
}

Status QuantizedRne::Save(const std::string& path) const {
  BinaryWriter w(path, kQuantMagic);
  if (!w.ok()) return Status::IoError("cannot open " + path + ".tmp");
  const uint8_t* codes = codes_view_ != nullptr ? codes_view_ : codes_.data();
  w.AddSection(kSecQuantCodes, codes, rows_ * dim_);
  w.WritePod<uint64_t>(rows_);
  w.WritePod<uint64_t>(dim_);
  w.WritePod(scale_);
  w.WriteVector(steps_);
  return w.Finish();
}

Status QuantizedRne::ParseMeta(BinaryReader& r, const std::string& path) {
  uint64_t rows = 0, dim = 0;
  if (!r.ReadPod(&rows) || !r.ReadPod(&dim) || !r.ReadPod(&scale_) ||
      !r.ReadVector(&steps_)) {
    return r.ReadError("corrupt quantized model " + path);
  }
  // The CRC-protected section table bounds the code bytes; corrupt rows/dim
  // fields fail this cross-check instead of allocating. An absent section
  // means zero code bytes (empty sections are dropped by the writer), so
  // rows*dim must then be 0 too.
  const SectionInfo* sec = r.FindSection(kSecQuantCodes);
  const uint64_t sec_size = sec == nullptr ? 0 : sec->size;
  if ((dim != 0 && rows > sec_size / dim) || rows * dim != sec_size) {
    return Status::Corruption("corrupt quantized model " + path);
  }
  if (steps_.size() != dim) {
    return Status::Corruption("inconsistent quantized model " + path);
  }
  rows_ = rows;
  dim_ = dim;
  return Status::Ok();
}

StatusOr<QuantizedRne> QuantizedRne::Load(const std::string& path,
                                          LoadMode mode) {
  if (mode == LoadMode::kMmap) {
    auto opened = MappedEnvelope::Open(path, kQuantMagic);
    if (!opened.ok()) return opened.status();
    std::shared_ptr<const MappedEnvelope> env = std::move(opened).value();
    BinaryReader r(env->file().data(), env->file().size(), path,
                   kQuantMagic);
    if (!r.ok()) return r.status();
    QuantizedRne q;
    RNE_RETURN_IF_ERROR(q.ParseMeta(r, path));
    RNE_RETURN_IF_ERROR(r.Finish());
    q.codes_view_ = env->SectionData(kSecQuantCodes);
    q.mapping_ = std::move(env);
    return q;
  }
  BinaryReader r(path, kQuantMagic);
  if (!r.ok()) return r.status();
  QuantizedRne q;
  RNE_RETURN_IF_ERROR(q.ParseMeta(r, path));
  RNE_RETURN_IF_ERROR(r.Finish());
  q.codes_.resize(q.rows_ * q.dim_);
  if (!q.codes_.empty()) {
    RNE_RETURN_IF_ERROR(r.ReadSectionInto(kSecQuantCodes, q.codes_.data(),
                                          q.codes_.size()));
  }
  return q;
}

}  // namespace rne
