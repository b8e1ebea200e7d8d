#include "serve/model_snapshot.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "nn/init.hpp"
#include "nn/serialize.hpp"
#include "util/rng.hpp"

namespace distgnn::serve {

namespace {

/// Serial i-k-j GEMM + row bias. Workers run concurrently, so the snapshot
/// must not spawn nested OpenMP teams; per-request row blocks are small
/// enough that the serial loop is the right tool. The k-ascending
/// accumulation order matches nn/gemm so served logits are bitwise-identical
/// to the training-side forward.
void dense_affine(ConstMatrixView X, const DenseMatrix& W, const DenseMatrix& bias, MatrixView Y) {
  const std::size_t k_dim = W.rows(), n_dim = W.cols();
  for (std::size_t i = 0; i < X.rows; ++i) {
    real_t* y = Y.row(i);
    for (std::size_t j = 0; j < n_dim; ++j) y[j] = 0;
    const real_t* x = X.row(i);
    for (std::size_t k = 0; k < k_dim; ++k) {
      const real_t a = x[k];
      const real_t* w = W.row(k);
      for (std::size_t j = 0; j < n_dim; ++j) y[j] += a * w[j];
    }
    // Bias last, as nn/Linear does (gemm then add_row_bias): float addition
    // is non-associative, so the order is part of the bitwise contract.
    for (std::size_t j = 0; j < n_dim; ++j) y[j] += bias.at(0, j);
  }
}

std::size_t batch_rows(std::span<const MiniBatch> batch, std::size_t layer, bool src_side) {
  std::size_t rows = 0;
  for (const MiniBatch& mb : batch) {
    const SampledBlock& b = mb.blocks[layer];
    rows += static_cast<std::size_t>(src_side ? b.num_src : b.num_dst);
  }
  return rows;
}

}  // namespace

std::size_t ModelSpec::in_dim(int layer) const {
  return static_cast<std::size_t>(layer == 0 ? feature_dim : hidden_dim);
}

std::size_t ModelSpec::out_dim(int layer) const {
  return static_cast<std::size_t>(layer == num_layers - 1 ? num_classes : hidden_dim);
}

std::shared_ptr<ModelSnapshot> ModelSnapshot::allocate(const ModelSpec& spec,
                                                       std::uint64_t version) {
  if (spec.num_layers < 1) throw std::invalid_argument("ModelSnapshot: num_layers must be >= 1");
  if (spec.kind == ModelKind::kRgcn && spec.num_relations < 1)
    throw std::invalid_argument("ModelSnapshot: RGCN spec needs num_relations >= 1");
  auto snap = std::shared_ptr<ModelSnapshot>(new ModelSnapshot(spec, version));
  for (int l = 0; l < spec.num_layers; ++l) {
    LayerWeights lw;
    const std::size_t in = spec.in_dim(l), out = spec.out_dim(l);
    lw.weight = DenseMatrix(in, out);
    if (spec.kind == ModelKind::kSage) {
      lw.bias = DenseMatrix(1, out);
      lw.relu = l != spec.num_layers - 1;
    } else if (spec.kind == ModelKind::kRgcn) {
      lw.bias = DenseMatrix(1, out);
      lw.relu = l != spec.num_layers - 1;
      lw.rel_weight.reserve(static_cast<std::size_t>(spec.num_relations));
      for (int r = 0; r < spec.num_relations; ++r) lw.rel_weight.emplace_back(in, out);
    } else {
      lw.attn_src = DenseMatrix(1, out);
      lw.attn_dst = DenseMatrix(1, out);
    }
    snap->layers_.push_back(std::move(lw));
  }
  return snap;
}

std::shared_ptr<const ModelSnapshot> ModelSnapshot::random(const ModelSpec& spec,
                                                           std::uint64_t seed,
                                                           std::uint64_t version) {
  auto snap = allocate(spec, version);
  Rng rng(seed);
  for (LayerWeights& lw : snap->layers_) {
    xavier_uniform(lw.weight.view(), lw.weight.rows(), lw.weight.cols(), rng);
    if (spec.kind == ModelKind::kGat) {
      xavier_uniform(lw.attn_src.view(), lw.weight.cols(), 1, rng);
      xavier_uniform(lw.attn_dst.view(), lw.weight.cols(), 1, rng);
    }
    for (DenseMatrix& wr : lw.rel_weight)
      xavier_uniform(wr.view(), wr.rows(), wr.cols(), rng);
  }
  return snap;
}

std::vector<DenseMatrix*> ModelSnapshot::parameters() const {
  // Must match the trained model's params(): SAGE = per layer weight, bias;
  // RGCN = weight, self bias, then one weight per relation in ascending
  // relation order (RgcnLayer::collect_params); GAT = weight, attn_src,
  // attn_dst.
  std::vector<DenseMatrix*> params;
  for (const LayerWeights& lw : layers_) {
    auto& w = const_cast<LayerWeights&>(lw);
    params.push_back(&w.weight);
    if (spec_.kind == ModelKind::kGat) {
      params.push_back(&w.attn_src);
      params.push_back(&w.attn_dst);
    } else {
      params.push_back(&w.bias);
      for (DenseMatrix& wr : w.rel_weight) params.push_back(&wr);  // empty unless RGCN
    }
  }
  return params;
}

namespace {

std::vector<ParamRef> param_refs(const std::vector<DenseMatrix*>& params) {
  std::vector<ParamRef> refs;
  refs.reserve(params.size());
  for (DenseMatrix* m : params) refs.push_back({m->data(), nullptr, m->size()});
  return refs;
}

}  // namespace

std::shared_ptr<const ModelSnapshot> ModelSnapshot::from_checkpoint(const ModelSpec& spec,
                                                                    const std::string& path,
                                                                    std::uint64_t version) {
  // Allocate the right shapes, then let load_checkpoint fill (and validate
  // against) them.
  auto snap = allocate(spec, version);
  load_checkpoint(param_refs(snap->parameters()), path);
  return snap;
}

std::vector<real_t> ModelSnapshot::flatten() const {
  std::vector<real_t> flat;
  flat.reserve(num_parameters());
  for (const DenseMatrix* src : parameters())
    flat.insert(flat.end(), src->data(), src->data() + src->size());
  return flat;
}

std::size_t ModelSnapshot::num_parameters() const {
  std::size_t n = 0;
  for (const DenseMatrix* m : parameters()) n += m->size();
  return n;
}

void ModelSnapshot::save(const std::string& path) const {
  save_checkpoint(param_refs(parameters()), path);  // reads through the refs only
}

void ModelSnapshot::forward_batch(std::span<const MiniBatch> batch, ConstMatrixView inputs,
                                  ForwardScratch& scratch, DenseMatrix& logits) const {
  const auto num_layers = layers_.size();
  for (const MiniBatch& mb : batch)
    if (mb.blocks.size() != num_layers)
      throw std::invalid_argument("ModelSnapshot: minibatch depth != model layers");
  if (inputs.rows != batch_rows(batch, 0, /*src_side=*/true) ||
      inputs.cols != static_cast<std::size_t>(spec_.feature_dim))
    throw std::invalid_argument("ModelSnapshot: stacked input shape mismatch");

  scratch.acts.resize(num_layers + 1);
  scratch.acts[0].resize_discard(inputs.rows, inputs.cols);
  std::copy(inputs.data, inputs.data + inputs.rows * inputs.cols, scratch.acts[0].data());

  if (spec_.kind == ModelKind::kSage)
    forward_sage(batch, scratch);
  else if (spec_.kind == ModelKind::kRgcn)
    forward_rgcn(batch, scratch);
  else
    forward_gat(batch, scratch);

  const DenseMatrix& out = scratch.acts[num_layers];
  logits.resize_discard(out.rows(), out.cols());
  std::copy(out.data(), out.data() + out.size(), logits.data());
}

template <typename BlockAt>
void ModelSnapshot::sage_layer(const LayerWeights& lw, std::size_t num_requests,
                               const BlockAt& block_at, ConstMatrixView cur,
                               ForwardScratch& scratch, DenseMatrix& next) const {
  const std::size_t d = cur.cols;
  std::size_t out_rows = 0;
  for (std::size_t i = 0; i < num_requests; ++i)
    out_rows += static_cast<std::size_t>(block_at(i).num_dst);

  // combined = (agg + h_dst) * 1/(deg+1), computed in place over the
  // stacked destination rows; each request's rows reference only its own
  // source-row slice, so the result is independent of batch composition.
  DenseMatrix& combined = scratch.agg;
  combined.resize_discard(out_rows, d, 0);
  std::size_t in_off = 0, out_off = 0;
  for (std::size_t i = 0; i < num_requests; ++i) {
    const SampledBlock& block = block_at(i);
    for (vid_t v = 0; v < block.num_dst; ++v) {
      const auto nbrs = block.neighbors(v);
      real_t* c = combined.row(out_off + static_cast<std::size_t>(v));
      for (const vid_t u : nbrs) {
        const real_t* s = cur.row(in_off + static_cast<std::size_t>(u));
        for (std::size_t j = 0; j < d; ++j) c[j] += s[j];
      }
      const real_t inv = 1.0f / (static_cast<real_t>(nbrs.size()) + 1.0f);
      const real_t* h = cur.row(in_off + static_cast<std::size_t>(v));
      for (std::size_t j = 0; j < d; ++j) c[j] = (c[j] + h[j]) * inv;
    }
    in_off += static_cast<std::size_t>(block.num_src);
    out_off += static_cast<std::size_t>(block.num_dst);
  }

  next.resize_discard(out_rows, lw.weight.cols());
  dense_affine(combined.cview(), lw.weight, lw.bias, next.view());
  if (lw.relu) {
    real_t* y = next.data();
    for (std::size_t i = 0; i < next.size(); ++i) y[i] = y[i] > 0 ? y[i] : 0;
  }
}

template <typename BlockAt>
void ModelSnapshot::gat_layer(const LayerWeights& lw, std::size_t num_requests,
                              const BlockAt& block_at, ConstMatrixView cur,
                              ForwardScratch& scratch, DenseMatrix& next) const {
  const std::size_t d = lw.weight.cols();
  const std::size_t in_rows = cur.rows;
  std::size_t out_rows = 0;
  for (std::size_t i = 0; i < num_requests; ++i)
    out_rows += static_cast<std::size_t>(block_at(i).num_dst);

  // Projection of every source row, then per-destination attention over the
  // sampled in-neighbours (GatInference semantics: no self edge, degree-0
  // destinations output zeros).
  DenseMatrix& z = scratch.z;
  z.resize_discard(in_rows, d);
  const DenseMatrix zero_bias(1, d);  // the GAT projection is bias-free
  dense_affine(cur, lw.weight, zero_bias, z.view());

  next.resize_discard(out_rows, d, 0);

  std::size_t in_off = 0, out_off = 0;
  for (std::size_t i = 0; i < num_requests; ++i) {
    const SampledBlock& block = block_at(i);
    for (vid_t v = 0; v < block.num_dst; ++v) {
      const auto nbrs = block.neighbors(v);
      real_t* out = next.row(out_off + static_cast<std::size_t>(v));
      if (nbrs.empty()) continue;

      const real_t* zv = z.row(in_off + static_cast<std::size_t>(v));
      real_t dst_term = 0;
      for (std::size_t j = 0; j < d; ++j) dst_term += zv[j] * lw.attn_dst.at(0, j);

      scratch.scores.resize(nbrs.size());
      real_t max_score = -std::numeric_limits<real_t>::infinity();
      for (std::size_t n = 0; n < nbrs.size(); ++n) {
        const real_t* zu = z.row(in_off + static_cast<std::size_t>(nbrs[n]));
        real_t src_term = 0;
        for (std::size_t j = 0; j < d; ++j) src_term += zu[j] * lw.attn_src.at(0, j);
        const real_t raw = src_term + dst_term;
        const real_t score = raw > 0 ? raw : spec_.leaky_slope * raw;
        scratch.scores[n] = score;
        max_score = std::max(max_score, score);
      }
      real_t denom = 0;
      for (real_t& s : scratch.scores) {
        s = std::exp(s - max_score);
        denom += s;
      }
      const real_t inv = 1.0f / denom;
      for (std::size_t n = 0; n < nbrs.size(); ++n) {
        const real_t alpha = scratch.scores[n] * inv;
        const real_t* zu = z.row(in_off + static_cast<std::size_t>(nbrs[n]));
        for (std::size_t j = 0; j < d; ++j) out[j] += alpha * zu[j];
      }
    }
    in_off += static_cast<std::size_t>(block.num_src);
    out_off += static_cast<std::size_t>(block.num_dst);
  }
}

template <typename BlockAt>
void ModelSnapshot::rgcn_layer(const LayerWeights& lw, std::size_t num_requests,
                               const BlockAt& block_at, ConstMatrixView cur,
                               ForwardScratch& scratch, DenseMatrix& next) const {
  const std::size_t d_in = cur.cols;
  const std::size_t d_out = lw.weight.cols();
  std::size_t out_rows = 0;
  for (std::size_t i = 0; i < num_requests; ++i)
    out_rows += static_cast<std::size_t>(block_at(i).num_dst);

  next.resize_discard(out_rows, d_out);
  scratch.scores.resize(d_in);  // per-relation aggregate row
  std::size_t in_off = 0, out_off = 0;
  for (std::size_t i = 0; i < num_requests; ++i) {
    const SampledBlock& block = block_at(i);
    if (block.rel.size() != block.col.size())
      throw std::invalid_argument("ModelSnapshot: RGCN forward needs relation-labelled blocks");
    for (vid_t v = 0; v < block.num_dst; ++v) {
      real_t* y = next.row(out_off + static_cast<std::size_t>(v));
      // Self transform first — k-ascending GEMM then bias, exactly the
      // training-side Linear (gemm + add_row_bias) order.
      const real_t* h = cur.row(in_off + static_cast<std::size_t>(v));
      for (std::size_t j = 0; j < d_out; ++j) y[j] = 0;
      for (std::size_t k = 0; k < d_in; ++k) {
        const real_t a = h[k];
        const real_t* w = lw.weight.row(k);
        for (std::size_t j = 0; j < d_out; ++j) y[j] += a * w[j];
      }
      for (std::size_t j = 0; j < d_out; ++j) y[j] += lw.bias.at(0, j);

      const auto nbrs = block.neighbors(v);
      const auto rels = block.relations(v);
      for (std::size_t r = 0; r < lw.rel_weight.size(); ++r) {
        // Mean aggregate of this relation's sampled neighbours, in block
        // (== per-relation CSR) order; at full fanout the count is the
        // graph's per-relation in-degree, matching the trainer's inv_norm.
        real_t* s = scratch.scores.data();
        for (std::size_t j = 0; j < d_in; ++j) s[j] = 0;
        std::size_t count = 0;
        for (std::size_t n = 0; n < nbrs.size(); ++n) {
          if (rels[n] != static_cast<int>(r)) continue;
          const real_t* su = cur.row(in_off + static_cast<std::size_t>(nbrs[n]));
          for (std::size_t j = 0; j < d_in; ++j) s[j] += su[j];
          ++count;
        }
        const real_t inv = count > 0 ? 1.0f / static_cast<real_t>(count) : 0.0f;
        // Accumulate even when the relation is empty: the trainer's
        // per-relation GEMM runs unconditionally and float += is
        // sign-sensitive, so skipping would break bitwise equality.
        const DenseMatrix& wr = lw.rel_weight[r];
        for (std::size_t k = 0; k < d_in; ++k) {
          const real_t a = s[k] * inv;
          const real_t* w = wr.row(k);
          for (std::size_t j = 0; j < d_out; ++j) y[j] += a * w[j];
        }
      }
      if (lw.relu)
        for (std::size_t j = 0; j < d_out; ++j) y[j] = y[j] > 0 ? y[j] : 0;
    }
    in_off += static_cast<std::size_t>(block.num_src);
    out_off += static_cast<std::size_t>(block.num_dst);
  }
}

void ModelSnapshot::forward_sage(std::span<const MiniBatch> batch, ForwardScratch& scratch) const {
  for (std::size_t l = 0; l < layers_.size(); ++l)
    sage_layer(
        layers_[l], batch.size(),
        [&](std::size_t i) -> const SampledBlock& { return batch[i].blocks[l]; },
        scratch.acts[l].cview(), scratch, scratch.acts[l + 1]);
}

void ModelSnapshot::forward_gat(std::span<const MiniBatch> batch, ForwardScratch& scratch) const {
  for (std::size_t l = 0; l < layers_.size(); ++l)
    gat_layer(
        layers_[l], batch.size(),
        [&](std::size_t i) -> const SampledBlock& { return batch[i].blocks[l]; },
        scratch.acts[l].cview(), scratch, scratch.acts[l + 1]);
}

void ModelSnapshot::forward_rgcn(std::span<const MiniBatch> batch, ForwardScratch& scratch) const {
  for (std::size_t l = 0; l < layers_.size(); ++l)
    rgcn_layer(
        layers_[l], batch.size(),
        [&](std::size_t i) -> const SampledBlock& { return batch[i].blocks[l]; },
        scratch.acts[l].cview(), scratch, scratch.acts[l + 1]);
}

void ModelSnapshot::forward_layer(int layer, std::span<const MiniBatch> batch,
                                  ConstMatrixView inputs, ForwardScratch& scratch,
                                  DenseMatrix& out) const {
  if (layer < 0 || layer >= static_cast<int>(layers_.size()))
    throw std::invalid_argument("ModelSnapshot::forward_layer: layer out of range");
  for (const MiniBatch& mb : batch)
    if (mb.blocks.size() != 1)
      throw std::invalid_argument("ModelSnapshot::forward_layer: expects one-hop minibatches");
  if (inputs.rows != batch_rows(batch, 0, /*src_side=*/true) ||
      inputs.cols != spec_.in_dim(layer))
    throw std::invalid_argument("ModelSnapshot::forward_layer: stacked input shape mismatch");

  // RGCN is excluded from the single-layer (embed-cache) path: relation
  // labels do not survive the per-(vertex, layer) canonical re-sampling.
  if (spec_.kind == ModelKind::kRgcn)
    throw std::invalid_argument("ModelSnapshot::forward_layer: RGCN has no embed-forward path");
  const auto block_at = [&](std::size_t i) -> const SampledBlock& { return batch[i].blocks[0]; };
  if (spec_.kind == ModelKind::kSage)
    sage_layer(layers_[static_cast<std::size_t>(layer)], batch.size(), block_at, inputs, scratch,
               out);
  else
    gat_layer(layers_[static_cast<std::size_t>(layer)], batch.size(), block_at, inputs, scratch,
              out);
}

void SnapshotHolder::publish(std::shared_ptr<const ModelSnapshot> snapshot) {
  std::uint64_t version = 0;
  std::function<void(std::uint64_t)> hook;
  {
    util::MutexLock lock(mutex_);
    if (snapshot) version = snapshot->version();
    current_ = std::move(snapshot);
    ++publishes_;
    hook = on_publish_;
  }
  // Outside the lock: the hook may take cache shard locks, and readers must
  // not block behind it.
  if (hook) hook(version);
}

std::shared_ptr<const ModelSnapshot> SnapshotHolder::get() const {
  util::MutexLock lock(mutex_);
  return current_;
}

std::uint64_t SnapshotHolder::num_publishes() const {
  util::MutexLock lock(mutex_);
  return publishes_;
}

void SnapshotHolder::set_on_publish(std::function<void(std::uint64_t)> hook) {
  util::MutexLock lock(mutex_);
  on_publish_ = std::move(hook);
}

}  // namespace distgnn::serve
