// Immutable served models for the online inference subsystem.
//
// A ModelSnapshot freezes the weights of a trained GraphSAGE (or GAT) model
// loaded from an nn/serialize checkpoint. Unlike the training-side layers,
// whose forward passes cache activations in member scratch (and are therefore
// not usable from concurrent worker threads), a snapshot's forward is
// stateless: all scratch lives in a caller-owned ForwardScratch, so any
// number of servers/workers can run inference against one shared snapshot.
//
// SnapshotHolder is the publication point: publish() atomically swaps the
// live snapshot under traffic, and get() hands each in-flight batch a
// shared_ptr that keeps *its* model alive until the batch completes — a new
// checkpoint can land mid-stream without ever serving a torn model.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sampling/minibatch.hpp"
#include "util/matrix.hpp"
#include "util/sync.hpp"

namespace distgnn::serve {

enum class ModelKind { kSage, kGat, kRgcn };

struct ModelSpec {
  ModelKind kind = ModelKind::kSage;
  int feature_dim = 0;
  int hidden_dim = 0;
  int num_classes = 0;
  int num_layers = 2;
  float leaky_slope = 0.2f;  // GAT attention LeakyReLU slope
  int num_relations = 0;     // RGCN: edge-type count (must match the dataset)

  std::size_t in_dim(int layer) const;
  std::size_t out_dim(int layer) const;
};

/// Reusable per-worker scratch for forward_batch; grows to the largest batch
/// seen and is never shared between threads.
struct ForwardScratch {
  std::vector<DenseMatrix> acts;  // acts[l] feeds layer l (stacked over batch)
  DenseMatrix agg;                // stacked neighbourhood aggregate / weighted sum
  DenseMatrix inv_norm;           // per-dst 1/(deg+1) column (SAGE)
  DenseMatrix z;                  // projected features (GAT)
  std::vector<real_t> scores;     // per-edge attention scratch (GAT)
};

class ModelSnapshot {
 public:
  /// Loads a checkpoint written by save_checkpoint over the corresponding
  /// model's params() (the order parameters() spells out). Shape mismatches
  /// throw std::runtime_error.
  static std::shared_ptr<const ModelSnapshot> from_checkpoint(const ModelSpec& spec,
                                                              const std::string& path,
                                                              std::uint64_t version);

  /// Freshly initialized weights (tests and cold-start serving).
  static std::shared_ptr<const ModelSnapshot> random(const ModelSpec& spec, std::uint64_t seed,
                                                     std::uint64_t version);

  const ModelSpec& spec() const { return spec_; }
  std::uint64_t version() const { return version_; }
  std::size_t num_parameters() const;

  /// Writes this snapshot's weights as a checkpoint (snapshot round-trips and
  /// the demo's hot-swap publisher use this).
  void save(const std::string& path) const;

  /// All weights in checkpoint order as one contiguous buffer (the oracle
  /// snapshot round-trip tests compare).
  std::vector<real_t> flatten() const;

  /// Runs the whole micro-batch through the frozen model in one pass.
  ///
  /// `batch` holds one independently sampled MiniBatch per request; `inputs`
  /// is the stacked feature gather for batch[0].input_vertices ++
  /// batch[1].input_vertices ++ ... ; `logits` receives one row per seed, in
  /// the same request-major order. Every per-row operation (aggregation sum
  /// in block neighbour order, i-k-j GEMM, bias, activation) touches only
  /// that request's rows in the same order as a single-request call, so a
  /// batched forward is bitwise-equal to per-request forwards.
  void forward_batch(std::span<const MiniBatch> batch, ConstMatrixView inputs,
                     ForwardScratch& scratch, DenseMatrix& logits) const;

  /// Applies exactly one layer to stacked one-hop blocks: each MiniBatch in
  /// `batch` must hold a single block, `inputs` is the stacked layer-`layer`
  /// input gather (one row per block source vertex, request-major), and
  /// `out` receives one row per destination vertex. Runs through the same
  /// per-layer core as forward_batch, so a layer applied here is
  /// bitwise-equal to the corresponding step of a full forward — the
  /// embedding cache (EmbedForward) relies on that to mix cached and freshly
  /// computed hop-k embeddings.
  void forward_layer(int layer, std::span<const MiniBatch> batch, ConstMatrixView inputs,
                     ForwardScratch& scratch, DenseMatrix& out) const;

 private:
  struct LayerWeights {
    DenseMatrix weight;     // in x out (RGCN: the self-loop transform)
    DenseMatrix bias;       // 1 x out (SAGE, RGCN)
    DenseMatrix attn_src;   // 1 x out (GAT)
    DenseMatrix attn_dst;   // 1 x out (GAT)
    std::vector<DenseMatrix> rel_weight;  // in x out per relation (RGCN)
    bool relu = false;      // SAGE/RGCN hidden layers
  };

  ModelSnapshot(ModelSpec spec, std::uint64_t version) : spec_(spec), version_(version) {}

  /// Shapes every layer (zero weights, relu flags set) without drawing any
  /// random numbers — the base for every loader that overwrites the values.
  static std::shared_ptr<ModelSnapshot> allocate(const ModelSpec& spec, std::uint64_t version);

  /// Every parameter matrix in checkpoint order — the one place the
  /// per-ModelKind order lives; loaders, flatten() and save() all walk it.
  /// Pointers are mutable so loaders can fill a freshly allocated snapshot
  /// before it is shared; published snapshots are only ever read through it.
  std::vector<DenseMatrix*> parameters() const;

  void forward_sage(std::span<const MiniBatch> batch, ForwardScratch& scratch) const;
  void forward_gat(std::span<const MiniBatch> batch, ForwardScratch& scratch) const;
  void forward_rgcn(std::span<const MiniBatch> batch, ForwardScratch& scratch) const;

  /// Shared per-layer cores: `block_at(i)` yields the i-th request's block
  /// for the layer being applied (blocks[l] in a full forward, blocks[0] in
  /// forward_layer), `cur` the stacked input rows, `next` the stacked output
  /// rows. Both full-forward and single-layer paths run through these, which
  /// is what makes them bitwise-interchangeable.
  template <typename BlockAt>
  void sage_layer(const LayerWeights& lw, std::size_t num_requests, const BlockAt& block_at,
                  ConstMatrixView cur, ForwardScratch& scratch, DenseMatrix& next) const;
  template <typename BlockAt>
  void gat_layer(const LayerWeights& lw, std::size_t num_requests, const BlockAt& block_at,
                 ConstMatrixView cur, ForwardScratch& scratch, DenseMatrix& next) const;
  /// RGCN layer over relation-labelled blocks (block.rel must be filled by
  /// typed sampling). Matches RgcnLayer op for op: per destination — self
  /// transform (k-ascending GEMM then bias), then relations in ascending
  /// order (mean of that relation's sampled neighbours, never skipping empty
  /// relations), then ReLU on hidden layers. At full fanout the sampled
  /// per-relation counts equal the graph's per-relation in-degrees, so
  /// served logits are bitwise those of RgcnTrainer's baseline forward.
  template <typename BlockAt>
  void rgcn_layer(const LayerWeights& lw, std::size_t num_requests, const BlockAt& block_at,
                  ConstMatrixView cur, ForwardScratch& scratch, DenseMatrix& next) const;

  ModelSpec spec_;
  std::uint64_t version_ = 0;
  std::vector<LayerWeights> layers_;
};

/// Atomic publication point for the live snapshot: readers get a shared_ptr
/// (their model survives a concurrent publish), writers swap indivisibly.
class SnapshotHolder {
 public:
  void publish(std::shared_ptr<const ModelSnapshot> snapshot);
  std::shared_ptr<const ModelSnapshot> get() const;
  std::uint64_t num_publishes() const;

  /// Hook invoked after every publish, outside the holder lock, with the new
  /// snapshot's version — the invalidation point version-keyed caches (the
  /// serving embedding cache) wire into so a hot-swap drops stale entries.
  void set_on_publish(std::function<void(std::uint64_t version)> hook);

 private:
  mutable util::Mutex mutex_;
  std::shared_ptr<const ModelSnapshot> current_ GUARDED_BY(mutex_);
  std::uint64_t publishes_ GUARDED_BY(mutex_) = 0;
  std::function<void(std::uint64_t)> on_publish_ GUARDED_BY(mutex_);
};

}  // namespace distgnn::serve
