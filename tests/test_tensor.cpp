// Unit tests for the Tensor class: construction, indexing, reshaping,
// sub-tensor access, and precondition checking — plus the allocator seam
// (Shape SBO, Arena/ArenaScope/ScratchVec) and the vmath
// element loops against their scalar ports.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "tensor/arena.h"
#include "tensor/tensor.h"
#include "tensor/vmath.h"

namespace itask {
namespace {

TEST(Tensor, DefaultIsEmpty) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.numel(), 0);
  EXPECT_EQ(t.ndim(), 0);
}

TEST(Tensor, ZeroInitialised) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FillConstructor) {
  Tensor t({4}, 2.5f);
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], 2.5f);
}

TEST(Tensor, ExplicitValues) {
  Tensor t({2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  EXPECT_EQ(t.at({0, 0}), 1.0f);
  EXPECT_EQ(t.at({0, 1}), 2.0f);
  EXPECT_EQ(t.at({1, 0}), 3.0f);
  EXPECT_EQ(t.at({1, 1}), 4.0f);
}

TEST(Tensor, ValueCountMismatchThrows) {
  EXPECT_THROW(Tensor({2, 2}, {1.0f, 2.0f}), std::invalid_argument);
}

TEST(Tensor, FromValues) {
  Tensor t = Tensor::from_values({1.0f, 2.0f, 3.0f});
  EXPECT_EQ(t.ndim(), 1);
  EXPECT_EQ(t.dim(0), 3);
  EXPECT_EQ(t[2], 3.0f);
}

TEST(Tensor, FromRows) {
  Tensor t = Tensor::from_rows({{1.0f, 2.0f}, {3.0f, 4.0f}, {5.0f, 6.0f}});
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ(t.at({2, 1}), 6.0f);
}

TEST(Tensor, FromRowsRaggedThrows) {
  EXPECT_THROW(Tensor::from_rows({{1.0f, 2.0f}, {3.0f}}),
               std::invalid_argument);
}

TEST(Tensor, MultiDimAccess) {
  Tensor t({2, 3, 4});
  t.at({1, 2, 3}) = 7.0f;
  EXPECT_EQ(t[1 * 12 + 2 * 4 + 3], 7.0f);
}

TEST(Tensor, IndexRankMismatchThrows) {
  Tensor t({2, 3});
  EXPECT_THROW(t.at({1}), std::invalid_argument);
  EXPECT_THROW(t.at({1, 2, 0}), std::invalid_argument);
}

TEST(Tensor, OutOfRangeThrows) {
  Tensor t({2, 3});
  EXPECT_THROW(t.at({2, 0}), std::invalid_argument);
  EXPECT_THROW(t.at({0, 3}), std::invalid_argument);
  EXPECT_THROW(t[6], std::invalid_argument);
  EXPECT_THROW(t[-1], std::invalid_argument);
}

TEST(Tensor, Reshape) {
  Tensor t({2, 3}, {0, 1, 2, 3, 4, 5});
  Tensor r = t.reshape({3, 2});
  EXPECT_EQ(r.at({2, 1}), 5.0f);
  EXPECT_THROW(t.reshape({4, 2}), std::invalid_argument);
}

TEST(Tensor, RowAndIndex) {
  Tensor t({2, 3}, {0, 1, 2, 3, 4, 5});
  Tensor r1 = t.row(1);
  EXPECT_EQ(r1.shape(), (Shape{3}));
  EXPECT_EQ(r1[0], 3.0f);
  Tensor t3({2, 2, 2}, {0, 1, 2, 3, 4, 5, 6, 7});
  Tensor sub = t3.index(1);
  EXPECT_EQ(sub.shape(), (Shape{2, 2}));
  EXPECT_EQ(sub.at({1, 1}), 7.0f);
}

TEST(Tensor, SetIndex) {
  Tensor t({3, 2});
  t.set_index(1, Tensor({2}, {9.0f, 8.0f}));
  EXPECT_EQ(t.at({1, 0}), 9.0f);
  EXPECT_EQ(t.at({1, 1}), 8.0f);
  EXPECT_EQ(t.at({0, 0}), 0.0f);
  EXPECT_THROW(t.set_index(0, Tensor({3})), std::invalid_argument);
  EXPECT_THROW(t.set_index(3, Tensor({2})), std::invalid_argument);
}

TEST(Tensor, Fill) {
  Tensor t({2, 2});
  t.fill(3.0f);
  for (int64_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], 3.0f);
}

TEST(Tensor, Allclose) {
  Tensor a({2}, {1.0f, 2.0f});
  Tensor b({2}, {1.0f + 1e-6f, 2.0f - 1e-6f});
  EXPECT_TRUE(a.allclose(b));
  EXPECT_FALSE(a.allclose(Tensor({2}, {1.1f, 2.0f})));
  EXPECT_FALSE(a.allclose(Tensor({3})));
}

TEST(Tensor, NegativeDimThrows) {
  EXPECT_THROW(Tensor({2, -1}), std::invalid_argument);
}

TEST(Tensor, ShapeHelpers) {
  EXPECT_EQ(shape_numel({2, 3, 4}), 24);
  EXPECT_EQ(shape_numel({}), 1);
  EXPECT_EQ(shape_to_string({2, 3}), "[2, 3]");
}

TEST(Tensor, ToStringTruncates) {
  Tensor t({20}, 1.0f);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("Tensor[20]"), std::string::npos);
  EXPECT_NE(s.find("…"), std::string::npos);
}

// ---------------------------------------------------------------- shape ----

TEST(ShapeSbo, VectorishSurface) {
  Shape s{3, 24, 24};
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0], 3);
  EXPECT_EQ(s.back(), 24);
  s.push_back(7);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.back(), 7);
  // Single-value insert at the front — the detect() batching idiom.
  s.insert(s.begin(), 1);
  EXPECT_EQ(s, (Shape{1, 3, 24, 24, 7}));
  // Range insert at the end — the ops::stack idiom.
  const Shape tail{5, 6};
  Shape t{9};
  t.insert(t.end(), tail.begin(), tail.end());
  EXPECT_EQ(t, (Shape{9, 5, 6}));
  // Iterator-range construction drops the leading dim like index() does.
  const Shape sub(s.begin() + 1, s.end());
  EXPECT_EQ(sub, (Shape{3, 24, 24, 7}));
}

TEST(ShapeSbo, RankOverflowThrows) {
  Shape s;
  for (int64_t i = 0; i < Shape::kMaxRank; ++i) s.push_back(i);
  EXPECT_THROW(s.push_back(99), std::invalid_argument);
  Shape t{1, 2};
  const Shape big{1, 2, 3, 4, 5, 6, 7};
  EXPECT_THROW(t.insert(t.end(), big.begin(), big.end()),
               std::invalid_argument);
}

// ---------------------------------------------------------------- arena ----

TEST(Arena, BumpAllocatesAlignedAndAccountsRounded) {
  Arena a(1024);
  EXPECT_EQ(a.capacity(), 1024);
  void* p = a.allocate(1);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % Arena::kAlign, 0u);
  // Accounting rounds every allocation up to kAlign in used() too.
  EXPECT_EQ(a.used(), Arena::kAlign);
  a.allocate(65);  // rounds to 128
  EXPECT_EQ(a.used(), Arena::kAlign + 128);
  EXPECT_EQ(a.overflow_allocs(), 0);
  EXPECT_EQ(a.allocate(0), nullptr);
  EXPECT_EQ(a.used(), Arena::kAlign + 128);  // zero-byte asks are free
  a.reset();
  EXPECT_EQ(a.used(), 0);
  EXPECT_EQ(a.high_water(), Arena::kAlign + 128);
}

TEST(Arena, ZeroCapacityProbeMeasuresExactRequiredCapacity) {
  // The plan_workspace() measurement rule: run the call sequence over a
  // zero-capacity arena (everything overflows), read used(), and an arena of
  // exactly that capacity serves the same sequence overflow-free.
  const auto sequence = [](Arena& a) {
    a.allocate(40);
    a.allocate(100);
    a.allocate(64);
  };
  Arena probe(0);
  sequence(probe);
  EXPECT_EQ(probe.overflow_allocs(), 3);
  const int64_t required = probe.used();
  EXPECT_EQ(required, 64 + 128 + 64);
  Arena sized(required);
  sequence(sized);
  EXPECT_EQ(sized.overflow_allocs(), 0);
  EXPECT_EQ(sized.used(), required);
  // One byte less and the sequence overflows.
  Arena tight(required - 1);  // rounds up to `required` — still fits
  sequence(tight);
  EXPECT_EQ(tight.overflow_allocs(), 0);
  Arena small(required - Arena::kAlign);
  sequence(small);
  EXPECT_GT(small.overflow_allocs(), 0);
  EXPECT_EQ(small.used(), required);  // accounting unaffected by overflow
}

TEST(Arena, OverflowBlocksAreUsableAndFreedOnReset) {
  Arena a(64);
  float* fits = static_cast<float*>(a.allocate(64));
  float* spills = static_cast<float*>(a.allocate(256));
  ASSERT_NE(fits, nullptr);
  ASSERT_NE(spills, nullptr);
  std::memset(spills, 0, 256);
  spills[0] = 7.0f;
  EXPECT_EQ(a.overflow_allocs(), 1);
  a.reset();  // frees the overflow block (ASan would flag a leak/UAF)
  EXPECT_EQ(a.used(), 0);
  EXPECT_EQ(a.overflow_allocs(), 1);  // cumulative by design
}

TEST(Arena, GrowRequiresEmptyAndPreservesNothing) {
  Arena a(64);
  a.allocate(32);
  EXPECT_THROW(a.grow(1024), std::invalid_argument);
  a.reset();
  a.grow(1024);
  EXPECT_GE(a.capacity(), 1024);
  a.grow(64);  // no-op shrink request
  EXPECT_GE(a.capacity(), 1024);
  float* p = static_cast<float*>(a.allocate(512));
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(a.overflow_allocs(), 0);
}

TEST(ArenaScope, BindsPerThreadAndNests) {
  EXPECT_EQ(ArenaScope::current(), nullptr);
  Arena outer(4096), inner(4096);
  {
    ArenaScope s1(outer);
    EXPECT_EQ(ArenaScope::current(), &outer);
    {
      ArenaScope s2(inner);
      EXPECT_EQ(ArenaScope::current(), &inner);
    }
    EXPECT_EQ(ArenaScope::current(), &outer);
  }
  EXPECT_EQ(ArenaScope::current(), nullptr);
}

TEST(ArenaScope, TensorStorageComesFromBoundArena) {
  Arena a(1 << 16);
  {
    ArenaScope scope(a);
    Tensor t({4, 4}, 2.0f);
    EXPECT_EQ(a.used(), 64);  // 16 floats round to one cache line
    EXPECT_EQ(t.at({3, 3}), 2.0f);
    Tensor copy = t;  // copies allocate from the arena too
    EXPECT_EQ(a.used(), 128);
    EXPECT_TRUE(copy.allclose(t, 0.0f));
  }
  a.reset();
  // Values-adopting construction stays on the heap even under a scope: the
  // vector was already allocated.
  ArenaScope scope(a);
  Tensor v({2}, std::vector<float>{1.0f, 2.0f});
  EXPECT_EQ(a.used(), 0);
  EXPECT_EQ(v[1], 2.0f);
}

TEST(ArenaScope, ArenaAndHeapTensorsAreElementWiseIdentical) {
  // The identity that makes the serving arena invisible to results: the same
  // construction sequence under a scope yields bit-equal values.
  const auto build = [] {
    Tensor t({3, 5}, 0.5f);
    t.at({2, 4}) = -1.25f;
    Tensor r = t.reshape({5, 3});
    return r.index(4);
  };
  const Tensor heap = build();
  Arena a(1 << 16);
  Tensor from_arena;
  {
    ArenaScope scope(a);
    Tensor inside = build();
    from_arena = Tensor(inside.shape(), std::vector<float>(
                            inside.data().begin(), inside.data().end()));
  }
  ASSERT_EQ(heap.shape(), from_arena.shape());
  for (int64_t i = 0; i < heap.numel(); ++i)
    EXPECT_EQ(heap[i], from_arena[i]);
}

TEST(ScratchVec, ArenaBackedUnderScopeHeapOtherwise) {
  Arena a(4096);
  {
    ArenaScope scope(a);
    ScratchVec<int32_t> s(10);
    EXPECT_EQ(s.size(), 10);
    EXPECT_EQ(a.used(), 64);  // 40 bytes rounds to one line
    for (int64_t i = 0; i < s.size(); ++i) EXPECT_EQ(s[i], 0);
    ScratchVec<float> raw(4, /*zero_fill=*/false);
    raw[0] = 1.5f;
    EXPECT_EQ(raw[0], 1.5f);
  }
  a.reset();
  ScratchVec<int32_t> heap(10);
  EXPECT_EQ(a.used(), 0);
  for (int64_t i = 0; i < heap.size(); ++i) EXPECT_EQ(heap[i], 0);
  ScratchVec<float> empty(0);
  EXPECT_EQ(empty.size(), 0);
}

// ---------------------------------------------------------------- vmath ----
//
// The oracle is the in-library scalar port (not std::tanh), so these tests
// hold on any host libm. Comparisons are on bit patterns: NaN payloads,
// signed zeros and denormals must match too.

/// A strided sweep over all 2^32 bit patterns, a dense [-12, 12] grid, ±0,
/// denormals, ±inf and NaNs of both signs (quiet and signalling).
std::vector<float> vmath_inputs() {
  std::vector<float> xs;
  for (uint64_t b = 0; b < (uint64_t{1} << 32); b += 1021)
    xs.push_back(std::bit_cast<float>(static_cast<uint32_t>(b)));
  for (int i = -12000; i <= 12000; ++i)
    xs.push_back(static_cast<float>(i) * 1e-3f);
  for (const uint32_t b :
       {0x00000000u, 0x80000000u, 0x00000001u, 0x80000001u, 0x00400000u,
        0x007fffffu, 0x807fffffu, 0x7f800000u, 0xff800000u, 0x7fc00000u,
        0xffc00000u, 0x7f800001u, 0xffa00000u, 0x7fffffffu})
    xs.push_back(std::bit_cast<float>(b));
  return xs;
}

/// Gradients paired with vmath_inputs(): the same values, shuffled, so
/// special values meet finite ones on both operands.
std::vector<float> vmath_grads(const std::vector<float>& xs) {
  std::vector<float> gs(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) gs[i] = xs[(i * 7919) % xs.size()];
  return gs;
}

uint32_t bits(float x) { return std::bit_cast<uint32_t>(x); }

TEST(Vmath, GeluMatchesScalarPort) {
  const std::vector<float> xs = vmath_inputs();
  std::vector<float> ys(xs.size());
  vmath::gelu(xs, ys);
  int64_t mismatches = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    const float want = vmath::gelu_scalar(xs[i]);
    if (bits(ys[i]) != bits(want) && ++mismatches <= 5)
      ADD_FAILURE() << std::hex << "x=0x" << bits(xs[i]) << " vector 0x"
                    << bits(ys[i]) << " scalar 0x" << bits(want);
  }
  EXPECT_EQ(mismatches, 0);

  // Every tail length; the slot past the end is never written.
  for (size_t n = 0; n <= 33; ++n) {
    std::vector<float> out(n + 1, 42.0f);
    vmath::gelu(std::span(xs).subspan(5, n), std::span(out).first(n));
    for (size_t i = 0; i < n; ++i)
      EXPECT_EQ(bits(out[i]), bits(vmath::gelu_scalar(xs[5 + i])))
          << "n=" << n << " i=" << i;
    EXPECT_EQ(out[n], 42.0f) << "n=" << n;
  }

  // In place, as ops::gelu runs it.
  std::vector<float> inplace(xs.begin(), xs.begin() + 1000);
  vmath::gelu(inplace, inplace);
  for (size_t i = 0; i < inplace.size(); ++i)
    EXPECT_EQ(bits(inplace[i]), bits(ys[i]));
}

TEST(Vmath, GeluGradMatchesScalarPort) {
  const std::vector<float> xs = vmath_inputs();
  const std::vector<float> gs = vmath_grads(xs);
  std::vector<float> ys(xs.size());
  vmath::gelu_grad(xs, gs, ys);
  int64_t mismatches = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    const float want = vmath::gelu_grad_scalar(xs[i], gs[i]);
    if (bits(ys[i]) != bits(want) && ++mismatches <= 5)
      ADD_FAILURE() << std::hex << "x=0x" << bits(xs[i]) << " g=0x"
                    << bits(gs[i]) << " vector 0x" << bits(ys[i])
                    << " scalar 0x" << bits(want);
  }
  EXPECT_EQ(mismatches, 0);

  for (size_t n = 0; n <= 33; ++n) {
    std::vector<float> out(n + 1, 42.0f);
    vmath::gelu_grad(std::span(xs).subspan(3, n), std::span(gs).subspan(3, n),
                     std::span(out).first(n));
    for (size_t i = 0; i < n; ++i)
      EXPECT_EQ(bits(out[i]),
                bits(vmath::gelu_grad_scalar(xs[3 + i], gs[3 + i])))
          << "n=" << n << " i=" << i;
    EXPECT_EQ(out[n], 42.0f) << "n=" << n;
  }

  // In place over the gradient, as ops::gelu_grad runs it.
  std::vector<float> inplace(gs.begin(), gs.begin() + 1000);
  vmath::gelu_grad(std::span(xs).first(1000), inplace, inplace);
  for (size_t i = 0; i < inplace.size(); ++i)
    EXPECT_EQ(bits(inplace[i]), bits(ys[i]));
}

TEST(Vmath, GeluScalarPortIsGelu) {
  // The port against the formula in double with the host's double tanh:
  // every tanh branch is crossed on [-12, 12] (|inner| < 2^-55 up to >= 22).
  for (int i = -120000; i <= 120000; ++i) {
    const float x = static_cast<float>(i) * 1e-4f;
    const double xd = x;
    const double want =
        0.5 * xd *
        (1.0 + std::tanh(0.7978845608028654 * (xd + 0.044715 * xd * xd * xd)));
    ASSERT_NEAR(vmath::gelu_scalar(x), want, 1e-6 + 1e-6 * std::abs(want))
        << "x=" << x;
  }
  EXPECT_EQ(bits(vmath::gelu_scalar(0.0f)), bits(0.0f));
  EXPECT_EQ(bits(vmath::gelu_scalar(-0.0f)), bits(-0.0f));
  EXPECT_EQ(vmath::gelu_scalar(INFINITY), INFINITY);
  EXPECT_TRUE(std::isnan(vmath::gelu_scalar(NAN)));
  const float denormal = std::bit_cast<float>(0x00000005u);
  EXPECT_EQ(vmath::gelu_grad_scalar(denormal, 1.0f), 0.5f);
}

TEST(Vmath, ExpMatchesScalarPort) {
  std::vector<float> xs = vmath_inputs();
  // expf's special-case thresholds and their float neighbours: overflow
  // above log(2^128), zero below log(2^-150), the smallest denormal below
  // log(2^-149); plus the |x| >= 88 filter edge.
  for (const float edge : {0x1.62e42ep6f, -0x1.9fe368p6f, -0x1.9d1d9ep6f,
                           88.0f, -88.0f}) {
    xs.push_back(edge);
    xs.push_back(std::nextafter(edge, INFINITY));
    xs.push_back(std::nextafter(edge, -INFINITY));
  }
  std::vector<float> ys(xs.size());
  std::vector<float> sig(xs.size());
  vmath::exp(xs, ys);
  vmath::sigmoid(xs, sig);
  int64_t mismatches = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    const float want = vmath::exp_scalar(xs[i]);
    const float want_sig = vmath::sigmoid_scalar(xs[i]);
    if ((bits(ys[i]) != bits(want) || bits(sig[i]) != bits(want_sig)) &&
        ++mismatches <= 5)
      ADD_FAILURE() << std::hex << "x=0x" << bits(xs[i]) << " exp 0x"
                    << bits(ys[i]) << " vs 0x" << bits(want) << ", sigmoid 0x"
                    << bits(sig[i]) << " vs 0x" << bits(want_sig);
  }
  EXPECT_EQ(mismatches, 0);

  // The two inputs where an unfused range reduction rounds differently,
  // pinned to glibc 2.36 expf's bits.
  for (const auto [x, want] : {std::pair{0x4202422fu, 0x56fc9f1cu},
                               std::pair{0xc27c65d9u, 0x11fa2993u}}) {
    float y = 0.0f;
    const float xf = std::bit_cast<float>(x);
    vmath::exp(std::span(&xf, 1), std::span(&y, 1));
    EXPECT_EQ(bits(vmath::exp_scalar(xf)), want) << std::hex << x;
    EXPECT_EQ(bits(y), want) << std::hex << x;
  }

  // Specials: ±0 give 1, −inf gives +0, +inf stays, NaNs come back quiet
  // with their payload and sign, and the three thresholds.
  EXPECT_EQ(vmath::exp_scalar(0.0f), 1.0f);
  EXPECT_EQ(vmath::exp_scalar(-0.0f), 1.0f);
  EXPECT_EQ(bits(vmath::exp_scalar(-INFINITY)), 0u);
  EXPECT_EQ(vmath::exp_scalar(INFINITY), INFINITY);
  EXPECT_EQ(bits(vmath::exp_scalar(std::bit_cast<float>(0x7f800001u))),
            0x7fc00001u);
  EXPECT_EQ(bits(vmath::exp_scalar(std::bit_cast<float>(0xffa00000u))),
            0xffe00000u);
  EXPECT_EQ(vmath::exp_scalar(std::nextafter(0x1.62e42ep6f, INFINITY)),
            INFINITY);
  EXPECT_LT(vmath::exp_scalar(0x1.62e42ep6f), INFINITY);
  EXPECT_EQ(bits(vmath::exp_scalar(std::nextafter(-0x1.9fe368p6f,
                                                  -INFINITY))),
            0u);
  EXPECT_EQ(bits(vmath::exp_scalar(std::nextafter(-0x1.9d1d9ep6f,
                                                  -INFINITY))),
            1u);

  // The port is exp: within one float rounding of the double result.
  for (int i = -100000; i <= 88000; ++i) {
    const float x = static_cast<float>(i) * 1e-3f;
    const double want = std::exp(static_cast<double>(x));
    ASSERT_NEAR(vmath::exp_scalar(x), want, want * 0x1p-23 + 0x1p-149)
        << "x=" << x;
  }

  // Every tail length; the slot past the end is never written.
  for (size_t n = 0; n <= 33; ++n) {
    std::vector<float> out(n + 1, 42.0f);
    vmath::exp(std::span(xs).subspan(7, n), std::span(out).first(n));
    for (size_t i = 0; i < n; ++i)
      EXPECT_EQ(bits(out[i]), bits(vmath::exp_scalar(xs[7 + i])))
          << "n=" << n << " i=" << i;
    EXPECT_EQ(out[n], 42.0f) << "n=" << n;
  }
}

TEST(Vmath, SoftmaxRowMatchesScalarFormula) {
  // Rows of every length up to 40 (the vector exp's tails), drawn from the
  // sweep so NaN, ±inf and huge values land in some rows.
  const std::vector<float> xs = vmath_inputs();
  size_t from = 0;
  for (size_t n = 1; n <= 40; ++n) {
    for (int rep = 0; rep < 50; ++rep, from = (from + 997) % (xs.size() - n)) {
      std::vector<float> row(xs.begin() + from, xs.begin() + from + n);
      std::vector<float> want = row;
      float mx = want[0];
      for (const float v : want) mx = std::max(mx, v);
      float denom = 0.0f;
      for (float& v : want) {
        v = vmath::exp_scalar(v - mx);
        denom += v;
      }
      const float inv = 1.0f / denom;
      for (float& v : want) v *= inv;
      vmath::softmax(row);
      ASSERT_EQ(std::memcmp(row.data(), want.data(), n * sizeof(float)), 0)
          << "n=" << n << " from=" << from;
    }
  }
}

}  // namespace
}  // namespace itask
