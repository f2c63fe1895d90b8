#include "detect/decoder.h"

#include <algorithm>
#include <cmath>

#include "data/dataset.h"
#include "tensor/vmath.h"

namespace itask::detect {

std::vector<std::vector<Detection>> decode(const vit::VitOutput& output,
                                            const DecoderOptions& options) {
  const Tensor& obj = output.objectness;  // [B, T, 1]
  ITASK_CHECK(obj.ndim() == 3, "decode: unexpected objectness shape");
  const int64_t b = obj.dim(0);
  const int64_t t = obj.dim(1);
  ITASK_CHECK(t == options.grid * options.grid,
              "decode: grid does not match token count");
  for (const Tensor* head : {&output.class_logits, &output.attr_logits})
    ITASK_CHECK(head->ndim() == 3 && head->dim(0) == b && head->dim(1) == t,
                "decode: head outputs disagree with objectness shape");
  const int64_t c = output.class_logits.dim(2);
  const int64_t a = output.attr_logits.dim(2);
  const float cell_px = static_cast<float>(options.image_size) /
                        static_cast<float>(options.grid);

  const float* class_logits = output.class_logits.data().data();
  const float* attr_logits = output.attr_logits.data().data();
  std::vector<std::vector<Detection>> result(static_cast<size_t>(b));
  for (int64_t bi = 0; bi < b; ++bi) {
    for (int64_t cell = 0; cell < t; ++cell) {
      const float logit = obj.at({bi, cell, 0});
      const float p_obj = vmath::sigmoid_scalar(logit);
      // Written so a NaN p_obj is dropped too: a model fed huge finite
      // pixels can overflow to non-finite outputs.
      if (!(p_obj >= options.objectness_threshold)) continue;
      float delta[4];
      bool finite = true;
      for (int64_t j = 0; j < 4; ++j) {
        delta[j] = output.box_deltas.at({bi, cell, j});
        finite = finite && std::isfinite(delta[j]);
      }
      if (!finite) continue;
      Detection d;
      d.cell = cell;
      d.objectness = p_obj;
      d.confidence = p_obj;  // pipeline refines with the task confidence
      d.box = data::decode_box(delta, cell, options.grid, cell_px);
      // Class softmax and attribute sigmoids only for the cells kept.
      const int64_t row = bi * t + cell;
      d.attr_probs = Tensor({a});
      vmath::sigmoid({attr_logits + row * a, static_cast<size_t>(a)},
                     d.attr_probs.data());
      d.class_probs = Tensor({c});
      std::copy_n(class_logits + row * c, c, d.class_probs.data().data());
      vmath::softmax(d.class_probs.data());
      float best = -1.0f;
      for (int64_t j = 0; j < c; ++j) {
        const float p = d.class_probs[j];
        if (p > best) {
          best = p;
          d.predicted_class = j;
        }
      }
      result[static_cast<size_t>(bi)].push_back(std::move(d));
    }
  }
  return result;
}

}  // namespace itask::detect
