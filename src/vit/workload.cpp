#include "vit/workload.h"

#include "tensor/tensor.h"

namespace itask::vit {

int64_t InferenceWorkload::total_macs() const {
  int64_t acc = 0;
  for (const GemmOp& g : gemms) acc += g.macs();
  return acc;
}

int64_t InferenceWorkload::total_weight_bytes_int8() const {
  int64_t acc = 0;
  for (const GemmOp& g : gemms) acc += g.weight_bytes_int8();
  return acc;
}

int64_t InferenceWorkload::total_activation_bytes_int8() const {
  int64_t acc = 0;
  for (const GemmOp& g : gemms)
    acc += g.input_bytes_int8() + g.output_bytes_int8();
  return acc;
}

double InferenceWorkload::total_vector_flops() const {
  double acc = 0.0;
  for (const VectorOp& v : vector_ops)
    acc += static_cast<double>(v.elements) * v.flops_per_element;
  return acc;
}

InferenceWorkload build_workload(const ViTConfig& c, int64_t batch,
                                 const std::string& model_name) {
  ITASK_CHECK(batch >= 1, "build_workload: batch must be >= 1");
  ITASK_CHECK(c.heads >= 1 && c.dim % c.heads == 0,
              "build_workload: heads must be >= 1 and divide dim");
  InferenceWorkload w;
  w.model_name = model_name;
  w.batch = batch;
  const int64_t t = c.tokens() + 1;  // tokens incl. CLS
  const int64_t d = c.dim;
  const int64_t hd = d / c.heads;
  const int64_t pv = c.channels * c.patch_size * c.patch_size;
  const int64_t rows = batch * t;

  w.gemms.push_back({"patch_embed", batch * c.tokens(), pv, d, true});
  for (int64_t blk = 0; blk < c.depth; ++blk) {
    const std::string p = "block" + std::to_string(blk) + ".";
    w.vector_ops.push_back({p + "ln1", rows * d, 6.0});
    w.gemms.push_back({p + "qkv", rows, d, 3 * d, true});
    // Attention products are activation×activation: one logical GEMM per
    // (batch, head) pair, folded into a single row-blocked op.
    w.gemms.push_back({p + "attn_scores", batch * c.heads * t, hd, t, false});
    w.vector_ops.push_back({p + "softmax", batch * c.heads * t * t, 4.0});
    w.gemms.push_back({p + "attn_value", batch * c.heads * t, t, hd, false});
    w.gemms.push_back({p + "proj", rows, d, d, true});
    w.vector_ops.push_back({p + "ln2", rows * d, 6.0});
    w.gemms.push_back({p + "fc1", rows, d, c.mlp_hidden(), true});
    w.vector_ops.push_back({p + "gelu", rows * c.mlp_hidden(), 8.0});
    w.gemms.push_back({p + "fc2", rows, c.mlp_hidden(), d, true});
  }
  w.vector_ops.push_back({"final_ln", rows * d, 6.0});
  const int64_t prows = batch * c.tokens();
  w.gemms.push_back({"obj_head", prows, d, 1, true});
  w.gemms.push_back({"cls_head", prows, d, c.num_classes, true});
  w.gemms.push_back({"attr_head", prows, d, c.num_attributes, true});
  w.gemms.push_back({"box_fc1", prows, d, d, true});
  w.gemms.push_back({"box_fc2", prows, d, 4, true});
  w.gemms.push_back({"rel_head", prows, d, 1, true});
  w.vector_ops.push_back({"head_activations",
                          prows * (1 + c.num_classes + c.num_attributes),
                          3.0});
  return w;
}

}  // namespace itask::vit
