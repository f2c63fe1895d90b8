// K0 — GEMM kernel layer: old (naive triple-loop) vs new (blocked, packed)
// vs prepacked (weights packed once, as Framework::publish() does for every
// serving model) GFLOP/s on the exact shapes the deployable models emit —
// qkv/proj/fc1/fc2/patch-embed/head weight GEMMs and the attention
// activation bmms at the student (d40) and teacher (d64) widths, batch 1–32,
// fp32 and INT8. The prepacked column exists only for the weight GEMMs
// (fp32_bt / int8_bt, one weight matrix per call) — activation bmms have no
// publish-time weight to prepack.
//
// Every case is parity-checked (packed vs naive, and prepacked bit-exact vs
// packed where it applies) before it is timed; a mismatch fails the run
// (nonzero exit), which is what the ctest smoke entry exercises. Results are
// also written to BENCH_kernels.json so later PRs have a kernel-perf
// baseline to regress against.
//
// A second table times the element kernels of tensor/vmath.h (GELU, its
// gradient, exp, INT8 activation quantize): the vector loop against the scalar
// port it must equal bit for bit, checked before timing like the GEMMs.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "quant/int8_gemm.h"
#include "tensor/format.h"
#include "tensor/gemm.h"
#include "tensor/profile.h"
#include "tensor/rng.h"
#include "tensor/vmath.h"

namespace itask {
namespace {

enum class Kind { kFp32Nn, kFp32Bt, kFp32At, kInt8Bt };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kFp32Nn: return "fp32_nn";
    case Kind::kFp32Bt: return "fp32_bt";
    case Kind::kFp32At: return "fp32_at";
    case Kind::kInt8Bt: return "int8_bt";
  }
  return "?";
}

struct Case {
  std::string name;
  Kind kind;
  int64_t batch;  // independent GEMMs per call (bmm batch; 1 for 2-D)
  int64_t m, k, n;
  bool d40_deployable;  // counts toward the headline d40 geomean
};

struct Result {
  double naive_gflops = 0.0;
  double packed_gflops = 0.0;
  /// Weights packed once outside the timed region (the serving path after
  /// publish()); 0 when the case has no prepackable weight operand.
  double prepacked_gflops = 0.0;
  double speedup = 0.0;            // packed vs naive
  double prepacked_speedup = 0.0;  // prepacked vs packed (pack-per-call)
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Times fn by doubling the iteration count until the run exceeds
/// `min_seconds`, returning achieved GFLOP/s (2·batch·m·k·n flops per call).
template <typename Fn>
double time_gflops(const Case& c, double min_seconds, Fn&& fn) {
  const double flops_per_call =
      2.0 * static_cast<double>(c.batch) * static_cast<double>(c.m) *
      static_cast<double>(c.k) * static_cast<double>(c.n);
  fn();  // warm-up (and workspace growth)
  for (int64_t iters = 1;; iters *= 2) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int64_t i = 0; i < iters; ++i) fn();
    const double s = seconds_since(t0);
    if (s >= min_seconds || iters > (int64_t{1} << 30))
      return flops_per_call * static_cast<double>(iters) / s / 1e9;
  }
}

Result run_case(const Case& c, double min_seconds, Rng& rng) {
  Result r;
  const int64_t asz = c.batch * c.m * c.k;
  const int64_t bsz = c.batch * c.k * c.n;
  const int64_t csz = c.batch * c.m * c.n;
  if (c.kind == Kind::kInt8Bt) {
    std::vector<int8_t> a(static_cast<size_t>(asz));
    std::vector<int8_t> w(static_cast<size_t>(bsz));
    for (auto& v : a) v = static_cast<int8_t>(rng.randint(-128, 127));
    for (auto& v : w) v = static_cast<int8_t>(rng.randint(-128, 127));
    const int32_t zp = 7;
    // The Σw table is built once at finalize() in deployment; precompute it
    // outside the timed region to match.
    const std::vector<int32_t> sums = quant::weight_row_sums(w, c.n, c.k);
    std::vector<int32_t> acc(static_cast<size_t>(csz));
    std::vector<int32_t> ref(static_cast<size_t>(csz));
    quant::int8_gemm_bt(a, zp, w, ref, c.m, c.k, c.n);
    quant::int8_gemm_bt_packed(a, zp, w, sums, acc, c.m, c.k, c.n);
    if (acc != ref) {
      std::fprintf(stderr, "PARITY FAILURE: %s (int8)\n", c.name.c_str());
      std::exit(1);
    }
    // Serving path after publish(): the int16 k-pair panels are built once.
    const quant::PackedWeightInt8 pre = quant::pack_weights_int8(w, c.n, c.k);
    std::vector<int32_t> pacc(static_cast<size_t>(csz));
    quant::int8_gemm_bt_prepacked(a, zp, pre, sums, pacc, c.m);
    if (pacc != ref) {
      std::fprintf(stderr, "PARITY FAILURE: %s (int8 prepacked)\n",
                   c.name.c_str());
      std::exit(1);
    }
    r.naive_gflops = time_gflops(c, min_seconds, [&] {
      quant::int8_gemm_bt(a, zp, w, acc, c.m, c.k, c.n);
    });
    r.packed_gflops = time_gflops(c, min_seconds, [&] {
      quant::int8_gemm_bt_packed(a, zp, w, sums, acc, c.m, c.k, c.n);
    });
    r.prepacked_gflops = time_gflops(c, min_seconds, [&] {
      quant::int8_gemm_bt_prepacked(a, zp, pre, sums, pacc, c.m);
    });
  } else {
    const Tensor a = rng.randn({asz});
    const Tensor b = rng.randn({bsz});
    Tensor out({csz});
    Tensor ref({csz});
    auto dispatch = [&](bool packed, float* dst) {
      for (int64_t i = 0; i < c.batch; ++i) {
        const float* ap = a.data().data() + i * c.m * c.k;
        const float* bp = b.data().data() + i * c.k * c.n;
        float* cp = dst + i * c.m * c.n;
        switch (c.kind) {
          case Kind::kFp32Nn:
            packed ? gemm::gemm_nn(ap, bp, cp, c.m, c.k, c.n)
                   : gemm::reference::gemm_nn(ap, bp, cp, c.m, c.k, c.n);
            break;
          case Kind::kFp32Bt:
            packed ? gemm::gemm_bt(ap, bp, cp, c.m, c.k, c.n)
                   : gemm::reference::gemm_bt(ap, bp, cp, c.m, c.k, c.n);
            break;
          default:
            packed ? gemm::gemm_at(ap, bp, cp, c.m, c.k, c.n)
                   : gemm::reference::gemm_at(ap, bp, cp, c.m, c.k, c.n);
            break;
        }
      }
    };
    out.fill(0.0f);
    ref.fill(0.0f);
    dispatch(true, out.data().data());
    dispatch(false, ref.data().data());
    for (int64_t i = 0; i < csz; ++i) {
      const float tol = 2e-5f * (1.0f + std::abs(ref[i]));
      if (std::abs(out[i] - ref[i]) > tol) {
        std::fprintf(stderr, "PARITY FAILURE: %s element %lld (%g vs %g)\n",
                     c.name.c_str(), static_cast<long long>(i), out[i],
                     ref[i]);
        std::exit(1);
      }
    }
    // Prepacked applies to the weight GEMMs only: one B operand reused across
    // calls, exactly what Linear::infer() sees after prepack_for_serving().
    // Parity must run here, while `out` still holds exactly one dispatch —
    // the fp32 kernels accumulate into C, so after the timing loops `out`
    // holds result x iters.
    gemm::PackedB pre;
    Tensor pout({csz});
    const bool prepackable = c.kind == Kind::kFp32Bt && c.batch == 1;
    if (prepackable) {
      pre = gemm::pack_weights_bt(b.data().data(), c.k, c.n);
      gemm::gemm_bt_prepacked(a.data().data(), pre, pout.data().data(), c.m);
      for (int64_t i = 0; i < csz; ++i) {
        if (pout[i] != out[i]) {  // bit-exact vs pack-per-call by design
          std::fprintf(stderr,
                       "PARITY FAILURE: %s element %lld (prepacked %g vs "
                       "packed %g)\n",
                       c.name.c_str(), static_cast<long long>(i), pout[i],
                       out[i]);
          std::exit(1);
        }
      }
    }
    r.naive_gflops = time_gflops(
        c, min_seconds, [&] { dispatch(false, ref.data().data()); });
    r.packed_gflops = time_gflops(
        c, min_seconds, [&] { dispatch(true, out.data().data()); });
    if (prepackable) {
      r.prepacked_gflops = time_gflops(c, min_seconds, [&] {
        gemm::gemm_bt_prepacked(a.data().data(), pre, pout.data().data(),
                                c.m);
      });
    }
  }
  r.speedup = r.packed_gflops / r.naive_gflops;
  if (r.prepacked_gflops > 0.0)
    r.prepacked_speedup = r.prepacked_gflops / r.packed_gflops;
  return r;
}

/// One vmath element kernel timed as the vector loop and as a loop over
/// its scalar port.
struct ElementResult {
  const char* name;
  double vector_ns = 0.0;  // per element
  double scalar_ns = 0.0;
};

/// Times fn (one pass over `n` elements) by doubling the iteration count
/// until the run exceeds `min_seconds`; returns ns per element.
template <typename Fn>
double time_ns_per_element(int64_t n, double min_seconds, Fn&& fn) {
  fn();
  for (int64_t iters = 1;; iters *= 2) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int64_t i = 0; i < iters; ++i) fn();
    const double s = seconds_since(t0);
    if (s >= min_seconds || iters > (int64_t{1} << 30))
      return s * 1e9 / static_cast<double>(iters * n);
  }
}

/// Fails the run unless the two outputs agree bit for bit.
template <typename T>
void check_bit_exact(const char* name, std::span<const T> vec,
                     std::span<const T> ref) {
  if (std::memcmp(vec.data(), ref.data(), vec.size_bytes()) != 0) {
    std::fprintf(stderr, "PARITY FAILURE: %s (vector vs scalar port)\n",
                 name);
    std::exit(1);
  }
}

/// GELU, GELU', exp and quantize over one fc1 activation at batch 8 ([8, 10, 80]
/// = 6400 elements), the largest element loop of d40 inference.
std::vector<ElementResult> run_element_kernels(double min_seconds,
                                               Rng& rng) {
  const int64_t n = 8 * 10 * 80;
  Tensor x = rng.randn({n});
  for (float& v : x.data()) v *= 3.0f;
  // Specials ride along in the parity pass: ±0, ±inf, NaN, a denormal.
  x[0] = 0.0f;
  x[1] = -0.0f;
  x[2] = INFINITY;
  x[3] = -INFINITY;
  x[4] = NAN;
  x[5] = 1e-40f;
  const Tensor g = rng.randn({n});
  const std::span<const float> xs = x.data();
  const std::span<const float> gs = g.data();
  std::vector<float> vec(static_cast<size_t>(n));
  std::vector<float> ref(static_cast<size_t>(n));
  std::vector<int8_t> qvec(static_cast<size_t>(n));
  std::vector<int8_t> qref(static_cast<size_t>(n));
  const float scale = 6.0f / 255.0f;
  const int32_t zp = -3;

  auto gelu_vec = [&] { vmath::gelu(xs, vec); };
  auto gelu_ref = [&] {
    for (int64_t i = 0; i < n; ++i) ref[i] = vmath::gelu_scalar(xs[i]);
  };
  auto grad_vec = [&] { vmath::gelu_grad(xs, gs, vec); };
  auto grad_ref = [&] {
    for (int64_t i = 0; i < n; ++i)
      ref[i] = vmath::gelu_grad_scalar(xs[i], gs[i]);
  };
  auto exp_vec = [&] { vmath::exp(xs, vec); };
  auto exp_ref = [&] {
    for (int64_t i = 0; i < n; ++i) ref[i] = vmath::exp_scalar(xs[i]);
  };
  auto quant_vec = [&] { vmath::quantize(xs, qvec, scale, zp, -128, 127); };
  auto quant_ref = [&] {
    for (int64_t i = 0; i < n; ++i)
      qref[i] = vmath::quantize_scalar(xs[i], scale, zp, -128, 127);
  };

  std::vector<ElementResult> rows;
  gelu_vec();
  gelu_ref();
  check_bit_exact<float>("gelu", vec, ref);
  rows.push_back({"gelu", time_ns_per_element(n, min_seconds, gelu_vec),
                  time_ns_per_element(n, min_seconds, gelu_ref)});
  grad_vec();
  grad_ref();
  check_bit_exact<float>("gelu_grad", vec, ref);
  rows.push_back({"gelu_grad", time_ns_per_element(n, min_seconds, grad_vec),
                  time_ns_per_element(n, min_seconds, grad_ref)});
  exp_vec();
  exp_ref();
  check_bit_exact<float>("exp", vec, ref);
  rows.push_back({"exp", time_ns_per_element(n, min_seconds, exp_vec),
                  time_ns_per_element(n, min_seconds, exp_ref)});
  quant_vec();
  quant_ref();
  check_bit_exact<int8_t>("quantize", qvec, qref);
  rows.push_back({"quantize", time_ns_per_element(n, min_seconds, quant_vec),
                  time_ns_per_element(n, min_seconds, quant_ref)});
  return rows;
}

}  // namespace
}  // namespace itask

int main() {
  using namespace itask;
  const bool fast = std::getenv("ITASK_BENCH_FAST") != nullptr;
  bench::print_header(
      "K0", "GEMM kernel layer: naive vs blocked/packed GFLOP/s");

  // Deployable-model GEMM shapes. Student d40: rows = B·(tokens+1) = 10B,
  // patch rows = 9B, qkv n = 3·40; teacher d64: dims 64/192/128. Attention
  // bmms run one tiny GEMM per image×head (head_dim = 10, tokens+1 = 10).
  std::vector<Case> cases;
  for (const int64_t b : {int64_t{1}, int64_t{8}, int64_t{32}}) {
    const std::string sb = "_b" + std::to_string(b);
    cases.push_back({"d40_qkv" + sb, Kind::kFp32Bt, 1, 10 * b, 40, 120, true});
    cases.push_back({"d40_fc1" + sb, Kind::kFp32Bt, 1, 10 * b, 40, 80, true});
    cases.push_back({"d40_fc2" + sb, Kind::kFp32Bt, 1, 10 * b, 80, 40, true});
  }
  cases.push_back({"d40_patch_b8", Kind::kFp32Bt, 1, 72, 192, 40, true});
  cases.push_back({"d40_proj_b8", Kind::kFp32Bt, 1, 80, 40, 40, true});
  cases.push_back({"d40_cls_head_b8", Kind::kFp32Bt, 1, 72, 40, 13, true});
  cases.push_back(
      {"d40_attn_scores_b8", Kind::kFp32Bt, 32, 10, 10, 10, false});
  cases.push_back({"d40_attn_values_b8", Kind::kFp32Nn, 32, 10, 10, 10,
                   false});
  // Training-path variants (dx = g·W, dW = gᵀ·x) at d40, batch 8.
  cases.push_back({"d40_dx_qkv_b8", Kind::kFp32Nn, 1, 80, 120, 40, false});
  cases.push_back({"d40_dW_qkv_b8", Kind::kFp32At, 1, 80, 120, 40, false});
  // Teacher width.
  cases.push_back({"d64_qkv_b8", Kind::kFp32Bt, 1, 80, 64, 192, false});
  cases.push_back({"d64_fc1_b8", Kind::kFp32Bt, 1, 80, 64, 128, false});
  cases.push_back({"d64_fc2_b8", Kind::kFp32Bt, 1, 80, 128, 64, false});
  // INT8 deployable path (quantized configuration).
  for (const int64_t b : {int64_t{1}, int64_t{8}, int64_t{32}}) {
    const std::string sb = "_b" + std::to_string(b);
    cases.push_back(
        {"int8_qkv" + sb, Kind::kInt8Bt, 1, 10 * b, 40, 120, true});
  }
  cases.push_back({"int8_fc1_b8", Kind::kInt8Bt, 1, 80, 40, 80, true});
  cases.push_back({"int8_fc2_b8", Kind::kInt8Bt, 1, 80, 80, 40, true});
  cases.push_back({"int8_patch_b8", Kind::kInt8Bt, 1, 72, 192, 40, true});

  const double min_seconds = fast ? 0.002 : 0.05;
  Rng rng(1234);
  std::printf("\n%-22s %-8s %5s %5s %5s %5s  %11s %11s %11s %7s %8s\n",
              "case", "kind", "batch", "M", "K", "N", "naive GF/s",
              "packed GF/s", "prepack GF/s", "pk/nv", "ppk/pk");
  std::vector<Result> results;
  double log_sum = 0.0;
  int64_t d40_count = 0;
  double pre_log_sum = 0.0;
  int64_t pre_count = 0;
  for (const Case& c : cases) {
    const Result r = run_case(c, min_seconds, rng);
    results.push_back(r);
    if (c.d40_deployable) {
      log_sum += std::log(r.speedup);
      ++d40_count;
      if (r.prepacked_speedup > 0.0) {
        pre_log_sum += std::log(r.prepacked_speedup);
        ++pre_count;
      }
    }
    char pre_gf[16];
    char pre_sp[16];
    if (r.prepacked_gflops > 0.0) {
      std::snprintf(pre_gf, sizeof(pre_gf), "%11.2f", r.prepacked_gflops);
      std::snprintf(pre_sp, sizeof(pre_sp), "%7.2fx", r.prepacked_speedup);
    } else {
      std::snprintf(pre_gf, sizeof(pre_gf), "%11s", "-");
      std::snprintf(pre_sp, sizeof(pre_sp), "%8s", "-");
    }
    std::printf(
        "%-22s %-8s %5lld %5lld %5lld %5lld  %11.2f %11.2f %s %6.2fx %s\n",
        c.name.c_str(), kind_name(c.kind), static_cast<long long>(c.batch),
        static_cast<long long>(c.m), static_cast<long long>(c.k),
        static_cast<long long>(c.n), r.naive_gflops, r.packed_gflops, pre_gf,
        r.speedup, pre_sp);
  }
  const double d40_geomean =
      std::exp(log_sum / static_cast<double>(d40_count));
  const double d40_prepacked_geomean =
      pre_count > 0 ? std::exp(pre_log_sum / static_cast<double>(pre_count))
                    : 0.0;
  std::printf("\nd40 deployable-shape geomean speedup: %.2fx (%lld cases)\n",
              d40_geomean, static_cast<long long>(d40_count));
  std::printf(
      "d40 prepacked-over-pack-per-call geomean: %.2fx (%lld weight-GEMM "
      "cases)\n",
      d40_prepacked_geomean, static_cast<long long>(pre_count));

  std::printf("\nelement kernels (tensor/vmath.h, 6400 elements = d40 fc1 "
              "activation at b8; bit-exact vs scalar port)\n\n");
  std::printf("%-12s %14s %14s %8s\n", "kernel", "vector ns/el",
              "scalar ns/el", "speedup");
  const std::vector<ElementResult> elements =
      run_element_kernels(min_seconds, rng);
  for (const ElementResult& e : elements)
    std::printf("%-12s %14.3f %14.3f %7.2fx\n", e.name, e.vector_ns,
                e.scalar_ns, e.scalar_ns / e.vector_ns);

  FILE* json = std::fopen("BENCH_kernels.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_kernels.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"k0_gemm\",\n  \"mode\": \"%s\",\n",
               fast ? "fast" : "full");
  std::fprintf(json,
               "  \"d40_geomean_speedup\": %.3f,\n"
               "  \"d40_prepacked_geomean_speedup\": %.3f,\n"
               "  \"cases\": [\n",
               d40_geomean, d40_prepacked_geomean);
  for (size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    const Result& r = results[i];
    std::fprintf(
        json,
        "    {\"name\": \"%s\", \"kind\": \"%s\", \"batch\": %lld, "
        "\"m\": %lld, \"k\": %lld, \"n\": %lld, \"d40_deployable\": %s, "
        "\"naive_gflops\": %.3f, \"packed_gflops\": %.3f, "
        "\"prepacked_gflops\": %.3f, \"speedup\": %.3f, "
        "\"prepacked_speedup\": %.3f}%s\n",
        c.name.c_str(), kind_name(c.kind), static_cast<long long>(c.batch),
        static_cast<long long>(c.m), static_cast<long long>(c.k),
        static_cast<long long>(c.n), c.d40_deployable ? "true" : "false",
        r.naive_gflops, r.packed_gflops, r.prepacked_gflops, r.speedup,
        r.prepacked_speedup, i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"element_kernels\": [\n");
  for (size_t i = 0; i < elements.size(); ++i) {
    const ElementResult& e = elements[i];
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"elements\": 6400, "
                 "\"vector_ns_per_element\": %.4f, "
                 "\"scalar_ns_per_element\": %.4f, \"speedup\": %.3f, "
                 "\"bit_exact\": true}%s\n",
                 e.name, e.vector_ns, e.scalar_ns, e.scalar_ns / e.vector_ns,
                 i + 1 < elements.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_kernels.json (%zu cases, %zu element kernels)\n",
              cases.size(), elements.size());

  // Where the packed kernels spend their time: the tensor/profile.h scoped
  // timers (normally disabled, zero-cost — the GFLOP/s above are measured
  // hooks-off) attribute wall time to pack vs micro-kernel vs (for int8)
  // the quantize/dequantize edges. Representative d40 shape, batch 8.
  std::printf("\nkernel profile attribution (d40_qkv_b8: fp32_bt 80x40x120 + "
              "int8_qkv_b8)\n\n");
  {
    const int64_t m = 80, k = 40, n = 120;
    const Tensor a = rng.randn({m * k});
    const Tensor b = rng.randn({n * k});
    Tensor out({m * n});
    std::vector<int8_t> qa(static_cast<size_t>(m * k));
    std::vector<int8_t> qw(static_cast<size_t>(n * k));
    for (auto& v : qa) v = static_cast<int8_t>(rng.randint(-128, 127));
    for (auto& v : qw) v = static_cast<int8_t>(rng.randint(-128, 127));
    const std::vector<int32_t> sums = quant::weight_row_sums(qw, n, k);
    std::vector<int32_t> acc(static_cast<size_t>(m * n));
    profile::reset();
    profile::set_enabled(true);
    const int64_t iters = fast ? 200 : 2000;
    for (int64_t i = 0; i < iters; ++i) {
      gemm::gemm_bt(a.data().data(), b.data().data(), out.data().data(), m, k,
                    n);
      quant::int8_gemm_bt_packed(qa, /*zero_point=*/7, qw, sums, acc, m, k, n);
    }
    profile::set_enabled(false);
    const std::vector<profile::SectionStats> sections = profile::snapshot();
    int64_t total_ns = 0;
    for (const profile::SectionStats& s : sections) total_ns += s.total_ns;
    std::printf("%-16s %12s %10s %7s\n", "section", "calls", "us/call",
                "share%");
    for (const profile::SectionStats& s : sections) {
      std::printf("%-16s %12s %10.3f %7.1f\n", s.name,
                  fmt::i64(s.calls).c_str(),
                  static_cast<double>(s.total_ns) * 1e-3 /
                      static_cast<double>(s.calls),
                  total_ns > 0
                      ? 100.0 * static_cast<double>(s.total_ns) /
                            static_cast<double>(total_ns)
                      : 0.0);
    }
    profile::reset();
  }

  bench::print_footer_note(
      "expected shape: packed >= 3x naive geomean on the d40 deployable "
      "weight-GEMM shapes (fp32_bt + int8_bt); prepacked > 1x geomean over "
      "pack-per-call on the d40 weight GEMMs, largest at the thin serving "
      "shapes (m = 10..80, where the per-call B-pack dominates) and "
      "approaching parity by b32 (m = 320 amortizes the pack); bit-exact "
      "against pack-per-call everywhere. Attention bmms (10x10x10 per-head "
      "tiles) gain least and have no prepacked column — no publish-time "
      "weight operand. Parity vs the naive kernels is checked before "
      "timing. Attribution: the micro-kernel sections dominate, pack stays "
      "a minority share at these shapes; GFLOP/s numbers are hooks-off. "
      "Element kernels: the vector loop is bit-exact against its scalar "
      "port (checked before timing) and several times faster on AVX-512 "
      "hosts; on other hosts both columns run the scalar port.");
  return 0;
}
