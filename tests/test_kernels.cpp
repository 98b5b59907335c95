// Tests for the intensive-kernel code library: numerical correctness of
// every implementation against the interpreter's textbook references,
// parameterized across input scales (TEST_P property sweeps), plus registry
// behaviour (size rules, general fallbacks, embedded sources).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <utility>
#include <vector>

#include "kernels/kernels.h"
#include "kernels/library.hpp"
#include "support/rng.hpp"

namespace hcg::kernels {
namespace {

constexpr double kPi = std::numbers::pi;

std::vector<float> random_signal(int n, unsigned seed) {
  Rng rng(seed);
  return rng.signal_f32(static_cast<size_t>(n));
}

double max_diff(const std::vector<float>& a, const std::vector<float>& b) {
  double m = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, static_cast<double>(std::fabs(a[i] - b[i])));
  }
  return m;
}

/// Reference DFT in double precision (independent of all kernels).
std::vector<float> reference_dft(const std::vector<float>& in, int n,
                                 bool inverse) {
  std::vector<float> out(static_cast<size_t>(n) * 2);
  for (int k = 0; k < n; ++k) {
    double re = 0, im = 0;
    for (int t = 0; t < n; ++t) {
      const double ang = (inverse ? 2.0 : -2.0) * kPi * k * t / n;
      const double c = std::cos(ang), s = std::sin(ang);
      re += in[2 * t] * c - in[2 * t + 1] * s;
      im += in[2 * t] * s + in[2 * t + 1] * c;
    }
    if (inverse) {
      re /= n;
      im /= n;
    }
    out[2 * k] = static_cast<float>(re);
    out[2 * k + 1] = static_cast<float>(im);
  }
  return out;
}

// ---------------------------------------------------------------------------
// FFT family, parameterized over power-of-two sizes
// ---------------------------------------------------------------------------

class FftPow2 : public ::testing::TestWithParam<int> {};

TEST_P(FftPow2, Radix2MatchesReference) {
  const int n = GetParam();
  auto in = random_signal(2 * n, 1);
  std::vector<float> out(in.size());
  hcg_fft_radix2_tab(in.data(), out.data(), n, 0);
  EXPECT_LT(max_diff(out, reference_dft(in, n, false)), 2e-4 * n);
}

TEST_P(FftPow2, Radix2TableMatchesReference) {
  const int n = GetParam();
  auto in = random_signal(2 * n, 21);
  std::vector<float> out(in.size()), back(in.size());
  hcg_fft_radix2_tab(in.data(), out.data(), n, 0);
  EXPECT_LT(max_diff(out, reference_dft(in, n, false)), 2e-4 * n);
  hcg_fft_radix2_tab(out.data(), back.data(), n, 1);
  EXPECT_LT(max_diff(back, in), 1e-4);
}

TEST_P(FftPow2, BluesteinMatchesReference) {
  const int n = GetParam();
  auto in = random_signal(2 * n, 2);
  std::vector<float> out(in.size());
  hcg_fft_bluestein(in.data(), out.data(), n, 0);
  EXPECT_LT(max_diff(out, reference_dft(in, n, false)), 2e-4 * n);
}

TEST_P(FftPow2, MixedMatchesReference) {
  const int n = GetParam();
  auto in = random_signal(2 * n, 3);
  std::vector<float> out(in.size());
  hcg_fft_mixed(in.data(), out.data(), n, 0);
  EXPECT_LT(max_diff(out, reference_dft(in, n, false)), 2e-4 * n);
}

TEST_P(FftPow2, InverseRoundTrips) {
  const int n = GetParam();
  auto in = random_signal(2 * n, 4);
  std::vector<float> freq(in.size()), back(in.size());
  hcg_fft_radix2_tab(in.data(), freq.data(), n, 0);
  hcg_fft_radix2_tab(freq.data(), back.data(), n, 1);
  EXPECT_LT(max_diff(back, in), 1e-4);
}

TEST_P(FftPow2, LinearityHolds) {
  const int n = GetParam();
  auto a = random_signal(2 * n, 5);
  auto b = random_signal(2 * n, 6);
  std::vector<float> sum(a.size());
  for (size_t i = 0; i < a.size(); ++i) sum[i] = a[i] + b[i];
  std::vector<float> fa(a.size()), fb(a.size()), fsum(a.size());
  hcg_fft_radix2_tab(a.data(), fa.data(), n, 0);
  hcg_fft_radix2_tab(b.data(), fb.data(), n, 0);
  hcg_fft_radix2_tab(sum.data(), fsum.data(), n, 0);
  for (size_t i = 0; i < fa.size(); ++i) fa[i] += fb[i];
  EXPECT_LT(max_diff(fsum, fa), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftPow2,
                         ::testing::Values(2, 4, 8, 16, 32, 128, 512, 1024));

class FftPow4 : public ::testing::TestWithParam<int> {};

TEST_P(FftPow4, Radix4MatchesReference) {
  const int n = GetParam();
  auto in = random_signal(2 * n, 7);
  std::vector<float> out(in.size());
  hcg_fft_radix4(in.data(), out.data(), n, 0);
  EXPECT_LT(max_diff(out, reference_dft(in, n, false)), 2e-4 * n);
}

TEST_P(FftPow4, Radix4InverseRoundTrips) {
  const int n = GetParam();
  auto in = random_signal(2 * n, 8);
  std::vector<float> freq(in.size()), back(in.size());
  hcg_fft_radix4(in.data(), freq.data(), n, 0);
  hcg_fft_radix4(freq.data(), back.data(), n, 1);
  EXPECT_LT(max_diff(back, in), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftPow4, ::testing::Values(4, 16, 64, 256, 1024));

class FftAnySize : public ::testing::TestWithParam<int> {};

TEST_P(FftAnySize, DftMixedBluesteinAgree) {
  const int n = GetParam();
  auto in = random_signal(2 * n, 9);
  std::vector<float> dft(in.size()), mixed(in.size()), blue(in.size());
  hcg_fft_dft(in.data(), dft.data(), n, 0);
  hcg_fft_mixed(in.data(), mixed.data(), n, 0);
  hcg_fft_bluestein(in.data(), blue.data(), n, 0);
  const auto ref = reference_dft(in, n, false);
  EXPECT_LT(max_diff(dft, ref), 2e-4 * n);
  EXPECT_LT(max_diff(mixed, ref), 2e-4 * n);
  EXPECT_LT(max_diff(blue, ref), 2e-4 * n);
}

TEST_P(FftAnySize, MixedInverseRoundTrips) {
  const int n = GetParam();
  auto in = random_signal(2 * n, 10);
  std::vector<float> freq(in.size()), back(in.size());
  hcg_fft_mixed(in.data(), freq.data(), n, 0);
  hcg_fft_mixed(freq.data(), back.data(), n, 1);
  EXPECT_LT(max_diff(back, in), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftAnySize,
                         ::testing::Values(1, 3, 5, 6, 12, 30, 60, 97, 100,
                                           360, 210));

TEST(Fft2d, MatchesRowColumnReference) {
  const int rows = 4, cols = 8;
  auto in = random_signal(2 * rows * cols, 11);
  std::vector<float> a(in.size()), b(in.size());
  hcg_fft2d_dft(in.data(), a.data(), rows, cols, 0);
  hcg_fft2d_radix2(in.data(), b.data(), rows, cols, 0);
  EXPECT_LT(max_diff(a, b), 1e-3);
}

TEST(Fft2d, InverseRoundTrips) {
  const int rows = 8, cols = 4;
  auto in = random_signal(2 * rows * cols, 12);
  std::vector<float> freq(in.size()), back(in.size());
  hcg_fft2d_radix2(in.data(), freq.data(), rows, cols, 0);
  hcg_fft2d_radix2(freq.data(), back.data(), rows, cols, 1);
  EXPECT_LT(max_diff(back, in), 1e-4);
}

// ---------------------------------------------------------------------------
// DCT family
// ---------------------------------------------------------------------------

class DctPow2 : public ::testing::TestWithParam<int> {};

TEST_P(DctPow2, LeeAndFftMatchNaive) {
  const int n = GetParam();
  auto in = random_signal(n, 13);
  std::vector<float> naive(in.size()), lee(in.size()), fft(in.size());
  hcg_dct_naive_f32(in.data(), naive.data(), n);
  hcg_dct_lee_f32(in.data(), lee.data(), n);
  hcg_dct_fft_f32(in.data(), fft.data(), n);
  EXPECT_LT(max_diff(lee, naive), 1e-3 * n);
  EXPECT_LT(max_diff(fft, naive), 1e-3 * n);
}

TEST_P(DctPow2, IdctInvertsDct) {
  const int n = GetParam();
  auto in = random_signal(n, 14);
  std::vector<float> freq(in.size()), back(in.size());
  hcg_dct_lee_f32(in.data(), freq.data(), n);
  hcg_idct_lee_f32(freq.data(), back.data(), n);
  EXPECT_LT(max_diff(back, in), 1e-3);
  hcg_idct_naive_f32(freq.data(), back.data(), n);
  EXPECT_LT(max_diff(back, in), 1e-3);
}

TEST_P(DctPow2, Float64VariantAgrees) {
  const int n = GetParam();
  auto in32 = random_signal(n, 15);
  std::vector<double> in(in32.begin(), in32.end());
  std::vector<double> naive(in.size()), lee(in.size());
  hcg_dct_naive_f64(in.data(), naive.data(), n);
  hcg_dct_lee_f64(in.data(), lee.data(), n);
  double m = 0;
  for (size_t i = 0; i < naive.size(); ++i) {
    m = std::max(m, std::fabs(naive[i] - lee[i]));
  }
  EXPECT_LT(m, 1e-9 * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DctPow2,
                         ::testing::Values(1, 2, 4, 8, 32, 256, 1024));

TEST(DctNaive, WorksForNonPow2) {
  const int n = 12;
  auto in = random_signal(n, 16);
  std::vector<float> freq(in.size()), back(in.size());
  hcg_dct_naive_f32(in.data(), freq.data(), n);
  hcg_idct_naive_f32(freq.data(), back.data(), n);
  EXPECT_LT(max_diff(back, in), 1e-3);
}

TEST(Dct2d, LeeMatchesNaive) {
  const int rows = 8, cols = 16;
  auto in = random_signal(rows * cols, 17);
  std::vector<float> naive(in.size()), lee(in.size());
  hcg_dct2d_naive_f32(in.data(), naive.data(), rows, cols);
  hcg_dct2d_lee_f32(in.data(), lee.data(), rows, cols);
  EXPECT_LT(max_diff(lee, naive), 1e-2);
}

// ---------------------------------------------------------------------------
// Convolution
// ---------------------------------------------------------------------------

class ConvSizes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ConvSizes, AllImplementationsAgree) {
  const auto [na, nb] = GetParam();
  auto a = random_signal(na, 18);
  auto b = random_signal(nb, 19);
  std::vector<float> direct(static_cast<size_t>(na + nb - 1));
  std::vector<float> blocked(direct.size()), fft(direct.size());
  hcg_conv_direct_f32(a.data(), na, b.data(), nb, direct.data());
  hcg_conv_blocked_f32(a.data(), na, b.data(), nb, blocked.data());
  hcg_conv_fft_f32(a.data(), na, b.data(), nb, fft.data());
  EXPECT_LT(max_diff(blocked, direct), 1e-4 * nb);
  EXPECT_LT(max_diff(fft, direct), 1e-3 * nb);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ConvSizes,
    ::testing::Values(std::pair{1, 1}, std::pair{5, 1}, std::pair{1, 5},
                      std::pair{16, 4}, std::pair{100, 17}, std::pair{64, 64},
                      std::pair{1000, 3}));

/// Full convolution in saxpy order: out[k] starts at zero and adds
/// b[j] * a[k - j] for taps j ascending, valid terms only.
template <typename T>
std::vector<T> saxpy_order_conv(const std::vector<T>& a,
                                const std::vector<T>& b) {
  std::vector<T> out(a.size() + b.size() - 1, T(0));
  for (size_t j = 0; j < b.size(); ++j) {
    for (size_t i = 0; i < a.size(); ++i) out[i + j] += b[j] * a[i];
  }
  return out;
}

template <typename T>
void expect_blocked_is_saxpy_order(void (*blocked)(const T*, int, const T*,
                                                   int, T*),
                                   int na, int nb) {
  Rng rng(static_cast<std::uint64_t>(na) * 1000 + nb);
  std::vector<T> a(static_cast<size_t>(na)), b(static_cast<size_t>(nb));
  for (T& v : a) v = static_cast<T>(rng.uniform_real(-1.0, 1.0));
  for (T& v : b) v = static_cast<T>(rng.uniform_real(-1.0, 1.0));
  std::vector<T> got(static_cast<size_t>(na + nb - 1));
  blocked(a.data(), na, b.data(), nb, got.data());
  const std::vector<T> want = saxpy_order_conv(a, b);
  for (size_t k = 0; k < want.size(); ++k) {
    ASSERT_EQ(got[k], want[k]) << "output " << k;
  }
}

TEST(Conv, BlockedIsBitIdenticalToSaxpyOrder) {
  // Heads, tails, blocks and their absence: na < nb, a partial block, an
  // exact block, one block plus a tail, and long runs of blocks.
  const std::pair<int, int> shapes[] = {{1, 1}, {5, 1},  {1, 5},   {7, 3},
                                        {8, 1}, {9, 8},  {16, 4},  {100, 17},
                                        {3, 20}, {1000, 3}};
  for (const auto& [na, nb] : shapes) {
    SCOPED_TRACE(::testing::Message() << na << "x" << nb);
    expect_blocked_is_saxpy_order<float>(&hcg_conv_blocked_f32, na, nb);
    expect_blocked_is_saxpy_order<double>(&hcg_conv_blocked_f64, na, nb);
  }
}

TEST(Conv, CommutativityOfFullConvolution) {
  auto a = random_signal(20, 20);
  auto b = random_signal(7, 21);
  std::vector<float> ab(26), ba(26);
  hcg_conv_direct_f32(a.data(), 20, b.data(), 7, ab.data());
  hcg_conv_direct_f32(b.data(), 7, a.data(), 20, ba.data());
  EXPECT_LT(max_diff(ab, ba), 1e-5);
}

TEST(Conv2d, DeltaKernelIsIdentity) {
  const int r = 5, c = 6;
  auto a = random_signal(r * c, 22);
  float delta = 1.0f;
  std::vector<float> out(static_cast<size_t>(r) * c);
  hcg_conv2d_direct_f32(a.data(), r, c, &delta, 1, 1, out.data());
  EXPECT_LT(max_diff(out, a), 1e-6);
}

// ---------------------------------------------------------------------------
// Matrix kernels
// ---------------------------------------------------------------------------

class MatSizes : public ::testing::TestWithParam<int> {};

TEST_P(MatSizes, UnrolledMatMulMatchesGeneric) {
  const int n = GetParam();
  auto a = random_signal(n * n, 23);
  auto b = random_signal(n * n, 24);
  std::vector<float> g(a.size()), u(a.size());
  hcg_matmul_generic_f32(a.data(), b.data(), g.data(), n);
  hcg_matmul_unrolled_f32(a.data(), b.data(), u.data(), n);
  EXPECT_LT(max_diff(g, u), 1e-5);
}

TEST_P(MatSizes, AdjugateInverseMatchesGauss) {
  const int n = GetParam();
  auto a = random_signal(n * n, 25);
  for (int i = 0; i < n; ++i) a[static_cast<size_t>(i * n + i)] += n + 1.0f;
  std::vector<float> g(a.size()), adj(a.size());
  hcg_matinv_gauss_f32(a.data(), g.data(), n);
  hcg_matinv_adjugate_f32(a.data(), adj.data(), n);
  EXPECT_LT(max_diff(g, adj), 1e-4);
}

TEST_P(MatSizes, DirectDeterminantMatchesGauss) {
  const int n = GetParam();
  auto a = random_signal(n * n, 26);
  float g = 0, d = 0;
  hcg_matdet_gauss_f32(a.data(), &g, n);
  hcg_matdet_direct_f32(a.data(), &d, n);
  EXPECT_NEAR(g, d, 1e-4);
}

TEST_P(MatSizes, InverseTimesOriginalIsIdentity) {
  const int n = GetParam();
  auto a = random_signal(n * n, 27);
  for (int i = 0; i < n; ++i) a[static_cast<size_t>(i * n + i)] += n + 2.0f;
  std::vector<float> inv(a.size()), prod(a.size());
  hcg_matinv_adjugate_f32(a.data(), inv.data(), n);
  hcg_matmul_generic_f32(a.data(), inv.data(), prod.data(), n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      EXPECT_NEAR(prod[static_cast<size_t>(r * n + c)], r == c ? 1.0f : 0.0f,
                  1e-4);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatSizes, ::testing::Values(2, 3, 4));

TEST(Mat, GenericHandlesLargerSizes) {
  const int n = 7;
  auto a = random_signal(n * n, 28);
  for (int i = 0; i < n; ++i) a[static_cast<size_t>(i * n + i)] += n + 2.0f;
  std::vector<float> inv(a.size()), prod(a.size());
  hcg_matinv_gauss_f32(a.data(), inv.data(), n);
  hcg_matmul_generic_f32(a.data(), inv.data(), prod.data(), n);
  for (int r = 0; r < n; ++r) {
    EXPECT_NEAR(prod[static_cast<size_t>(r * n + r)], 1.0f, 1e-3);
  }
}

template <typename T>
void expect_blocked_is_ikj_order(void (*blocked)(const T*, const T*, T*, int),
                                 int n) {
  Rng rng(static_cast<std::uint64_t>(n) * 7 + sizeof(T));
  const size_t elems = static_cast<size_t>(n) * static_cast<size_t>(n);
  std::vector<T> a(elems), b(elems);
  for (T& v : a) v = static_cast<T>(rng.uniform_real(-1.0, 1.0));
  for (T& v : b) v = static_cast<T>(rng.uniform_real(-1.0, 1.0));
  std::vector<T> got(elems, std::numeric_limits<T>::quiet_NaN());
  blocked(a.data(), b.data(), got.data(), n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      T want = T(0);
      for (int k = 0; k < n; ++k) want += a[r * n + k] * b[k * n + c];
      ASSERT_EQ(got[static_cast<size_t>(r * n + c)], want)
          << "output (" << r << ", " << c << ")";
    }
  }
}

TEST(Mat, BlockedIsBitIdenticalToIkjOrder) {
  // No full 8-column block, exact blocks, and 1- to 7-column tails: every
  // output is summed over k ascending from 0 in T.
  for (int n : {1, 7, 8, 9, 16, 17, 31, 96, 97}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    expect_blocked_is_ikj_order<float>(&hcg_matmul_blocked_f32, n);
    expect_blocked_is_ikj_order<double>(&hcg_matmul_blocked_f64, n);
  }
}

TEST(Mat, DeterminantOfProductIsProductOfDeterminants) {
  auto a = random_signal(9, 29);
  auto b = random_signal(9, 30);
  std::vector<float> ab(9);
  hcg_matmul_generic_f32(a.data(), b.data(), ab.data(), 3);
  float da, db, dab;
  hcg_matdet_direct_f32(a.data(), &da, 3);
  hcg_matdet_direct_f32(b.data(), &db, 3);
  hcg_matdet_direct_f32(ab.data(), &dab, 3);
  EXPECT_NEAR(dab, da * db, 1e-4);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(Registry, SizeRules) {
  EXPECT_TRUE(size_rule_accepts(SizeRule::kAny, {Shape({7})}));
  EXPECT_TRUE(size_rule_accepts(SizeRule::kPow2, {Shape({8})}));
  EXPECT_FALSE(size_rule_accepts(SizeRule::kPow2, {Shape({12})}));
  EXPECT_TRUE(size_rule_accepts(SizeRule::kPow2, {Shape({8, 16})}));
  EXPECT_FALSE(size_rule_accepts(SizeRule::kPow2, {Shape({8, 12})}));
  EXPECT_TRUE(size_rule_accepts(SizeRule::kPow4, {Shape({64})}));
  EXPECT_FALSE(size_rule_accepts(SizeRule::kPow4, {Shape({32})}));
  EXPECT_TRUE(size_rule_accepts(SizeRule::kMatSmall, {Shape({4, 4})}));
  EXPECT_FALSE(size_rule_accepts(SizeRule::kMatSmall, {Shape({5, 5})}));
  EXPECT_FALSE(size_rule_accepts(SizeRule::kMatSmall, {Shape({4})}));
}

TEST(Registry, GeneralImplementationsExistForEveryIntensiveType) {
  const CodeLibrary& lib = CodeLibrary::instance();
  EXPECT_EQ(lib.general_implementation("FFT", DataType::kComplex64).id,
            "fft_mixed");
  EXPECT_EQ(lib.general_implementation("DCT", DataType::kFloat32).id,
            "dct_naive");
  EXPECT_EQ(lib.general_implementation("Conv", DataType::kFloat64).id,
            "conv_direct");
  EXPECT_EQ(lib.general_implementation("MatMul", DataType::kFloat32).id,
            "matmul_generic");
  EXPECT_THROW(lib.general_implementation("FFT", DataType::kFloat32),
               SynthesisError);
}

TEST(Registry, ImplementationListsArePerTypeAndDtype) {
  const CodeLibrary& lib = CodeLibrary::instance();
  EXPECT_EQ(lib.implementations("FFT", DataType::kComplex64).size(), 5u);
  EXPECT_EQ(lib.implementations("DCT", DataType::kFloat32).size(), 3u);
  EXPECT_EQ(lib.implementations("IDCT", DataType::kFloat32).size(), 2u);
  EXPECT_TRUE(lib.implementations("FFT", DataType::kFloat32).empty());
}

TEST(Registry, FindAndCanHandle) {
  const CodeLibrary& lib = CodeLibrary::instance();
  const KernelImpl* radix4 = lib.find("fft_radix4", DataType::kComplex64);
  ASSERT_NE(radix4, nullptr);
  EXPECT_TRUE(radix4->can_handle(DataType::kComplex64, {Shape({256})}));
  EXPECT_FALSE(radix4->can_handle(DataType::kComplex64, {Shape({128})}));
  EXPECT_FALSE(radix4->can_handle(DataType::kFloat32, {Shape({256})}));
  EXPECT_EQ(lib.find("fft_radix4", DataType::kFloat32), nullptr);
  EXPECT_EQ(lib.find("no_such_impl", DataType::kComplex64), nullptr);
}

TEST(Registry, EmbeddedSourcesContainTheirSymbols) {
  const CodeLibrary& lib = CodeLibrary::instance();
  for (const KernelImpl& impl : lib.all()) {
    const std::string_view source = lib.source(impl.source_key);
    // Macro-instantiated kernels appear as "name_##SUF" in the source, so
    // search for the name with the type suffix stripped (keeping the '_').
    std::string needle = impl.c_function;
    if (needle.ends_with("_f32") || needle.ends_with("_f64")) {
      needle.resize(needle.size() - 3);
    }
    EXPECT_NE(source.find(needle), std::string_view::npos) << impl.id;
  }
  EXPECT_THROW(lib.source("nope.c"), InternalError);
}

TEST(Registry, RunKernelMatchesDirectCall) {
  const CodeLibrary& lib = CodeLibrary::instance();
  const KernelImpl* impl = lib.find("conv_direct", DataType::kFloat32);
  ASSERT_NE(impl, nullptr);
  Tensor a(DataType::kFloat32, Shape({10}));
  Tensor b(DataType::kFloat32, Shape({3}));
  for (int i = 0; i < 10; ++i) a.as<float>()[i] = static_cast<float>(i);
  for (int i = 0; i < 3; ++i) b.as<float>()[i] = 1.0f;
  Tensor out(DataType::kFloat32, Shape({12}));
  run_kernel(*impl, {&a, &b}, &out);
  std::vector<float> expect(12);
  hcg_conv_direct_f32(a.as<float>(), 10, b.as<float>(), 3, expect.data());
  for (int i = 0; i < 12; ++i) {
    EXPECT_FLOAT_EQ(out.as<float>()[i], expect[static_cast<size_t>(i)]);
  }
}

TEST(Registry, RunKernelHandlesInverseActorTypes) {
  const CodeLibrary& lib = CodeLibrary::instance();
  const KernelImpl* fwd = lib.find("fft_radix2_tab", DataType::kComplex64);
  const KernelImpl* inv = nullptr;
  for (const KernelImpl& impl : lib.all()) {
    if (impl.id == "fft_radix2_tab" && impl.actor_type == "IFFT") inv = &impl;
  }
  ASSERT_NE(fwd, nullptr);
  ASSERT_NE(inv, nullptr);
  Tensor x(DataType::kComplex64, Shape({8}));
  auto sig = random_signal(16, 31);
  std::copy(sig.begin(), sig.end(), x.as<float>());
  Tensor freq(DataType::kComplex64, Shape({8}));
  Tensor back(DataType::kComplex64, Shape({8}));
  run_kernel(*fwd, {&x}, &freq);
  run_kernel(*inv, {&freq}, &back);
  EXPECT_LT(back.max_abs_difference(x), 1e-4);
}

}  // namespace
}  // namespace hcg::kernels
