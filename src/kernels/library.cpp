#include "kernels/library.hpp"

#include "kernels/embedded.hpp"
#include "kernels/kernels.h"
#include "support/error.hpp"

namespace hcg::kernels {

namespace {

bool is_pow2(int n) { return n > 0 && (n & (n - 1)) == 0; }

bool is_pow4(int n) {
  if (!is_pow2(n)) return false;
  // A power of two is a power of four iff its single set bit is at an even
  // position: 0x55555555 masks those positions.
  return (static_cast<unsigned>(n) & 0x55555555u) != 0;
}

}  // namespace

bool size_rule_accepts(SizeRule rule, const std::vector<Shape>& in_shapes) {
  switch (rule) {
    case SizeRule::kAny:
      return true;
    case SizeRule::kPow2:
      for (int d : in_shapes.at(0).dims) {
        if (!is_pow2(d)) return false;
      }
      return !in_shapes.at(0).dims.empty();
    case SizeRule::kPow4:
      for (int d : in_shapes.at(0).dims) {
        if (!is_pow4(d)) return false;
      }
      return !in_shapes.at(0).dims.empty();
    case SizeRule::kMatSmall:
      return in_shapes.at(0).rank() == 2 && in_shapes.at(0).dims[0] <= 4;
    case SizeRule::kMatBlocked:
      return in_shapes.at(0).rank() == 2 && in_shapes.at(0).dims[0] >= 16;
  }
  return false;
}

bool KernelImpl::can_handle(DataType type,
                            const std::vector<Shape>& in_shapes) const {
  return type == dtype && size_rule_accepts(size_rule, in_shapes);
}

namespace {

/// Builds the registry.  Each entry appears once per element type it is
/// compiled for.
std::vector<KernelImpl> build_registry() {
  std::vector<KernelImpl> impls;

  auto add = [&](std::string id, std::string actor_type, DataType dtype,
                 KernelSig sig, SizeRule rule, std::string c_function,
                 std::string source_key, bool general, const void* fn) {
    impls.push_back(KernelImpl{std::move(id), std::move(actor_type), dtype,
                               sig, rule, std::move(c_function),
                               std::move(source_key), general, fn});
  };

  const DataType c64 = DataType::kComplex64;

  // ---- FFT / IFFT ---------------------------------------------------------
  for (const char* type : {"FFT", "IFFT"}) {
    // The *general* FFT is the any-size mixed-radix routine (the Mix-FFT
    // analog): that is the quality of generic function a production
    // generator links, and the baseline HCG is compared against.
    add("fft_dft", type, c64, KernelSig::kFft1D, SizeRule::kAny, "hcg_fft_dft",
        "hcg_fft.c", false, reinterpret_cast<const void*>(&hcg_fft_dft));
    add("fft_radix2_tab", type, c64, KernelSig::kFft1D, SizeRule::kPow2,
        "hcg_fft_radix2_tab", "hcg_fft.c", false,
        reinterpret_cast<const void*>(&hcg_fft_radix2_tab));
    add("fft_radix4", type, c64, KernelSig::kFft1D, SizeRule::kPow4,
        "hcg_fft_radix4", "hcg_fft.c", false,
        reinterpret_cast<const void*>(&hcg_fft_radix4));
    add("fft_mixed", type, c64, KernelSig::kFft1D, SizeRule::kAny,
        "hcg_fft_mixed", "hcg_fft.c", true,
        reinterpret_cast<const void*>(&hcg_fft_mixed));
    add("fft_bluestein", type, c64, KernelSig::kFft1D, SizeRule::kAny,
        "hcg_fft_bluestein", "hcg_fft.c", false,
        reinterpret_cast<const void*>(&hcg_fft_bluestein));
  }
  for (const char* type : {"FFT2D", "IFFT2D"}) {
    add("fft2d_dft", type, c64, KernelSig::kFft2D, SizeRule::kAny,
        "hcg_fft2d_dft", "hcg_fft.c", true,
        reinterpret_cast<const void*>(&hcg_fft2d_dft));
    add("fft2d_radix2", type, c64, KernelSig::kFft2D, SizeRule::kPow2,
        "hcg_fft2d_radix2", "hcg_fft.c", false,
        reinterpret_cast<const void*>(&hcg_fft2d_radix2));
  }

  // ---- DCT family / Conv / Mat*, per float element type --------------------
  struct TypeInfo {
    DataType dtype;
    const char* suf;
  };
  const TypeInfo kFloatTypes[] = {{DataType::kFloat32, "f32"},
                                  {DataType::kFloat64, "f64"}};

  for (const TypeInfo& t : kFloatTypes) {
    const std::string suf = t.suf;
    auto fn = [&](auto* f32_fn, auto* f64_fn) -> const void* {
      return t.dtype == DataType::kFloat32
                 ? reinterpret_cast<const void*>(f32_fn)
                 : reinterpret_cast<const void*>(f64_fn);
    };

    add("dct_naive", "DCT", t.dtype, KernelSig::kXform1D, SizeRule::kAny,
        "hcg_dct_naive_" + suf, "hcg_dct.c", true,
        fn(&hcg_dct_naive_f32, &hcg_dct_naive_f64));
    add("dct_lee", "DCT", t.dtype, KernelSig::kXform1D, SizeRule::kPow2,
        "hcg_dct_lee_" + suf, "hcg_dct.c", false,
        fn(&hcg_dct_lee_f32, &hcg_dct_lee_f64));
    add("dct_fft", "DCT", t.dtype, KernelSig::kXform1D, SizeRule::kPow2,
        "hcg_dct_fft_" + suf, "hcg_dct.c", false,
        fn(&hcg_dct_fft_f32, &hcg_dct_fft_f64));

    add("idct_naive", "IDCT", t.dtype, KernelSig::kXform1D, SizeRule::kAny,
        "hcg_idct_naive_" + suf, "hcg_dct.c", true,
        fn(&hcg_idct_naive_f32, &hcg_idct_naive_f64));
    add("idct_lee", "IDCT", t.dtype, KernelSig::kXform1D, SizeRule::kPow2,
        "hcg_idct_lee_" + suf, "hcg_dct.c", false,
        fn(&hcg_idct_lee_f32, &hcg_idct_lee_f64));

    add("dct2d_naive", "DCT2D", t.dtype, KernelSig::kXform2D, SizeRule::kAny,
        "hcg_dct2d_naive_" + suf, "hcg_dct.c", true,
        fn(&hcg_dct2d_naive_f32, &hcg_dct2d_naive_f64));
    add("dct2d_lee", "DCT2D", t.dtype, KernelSig::kXform2D, SizeRule::kPow2,
        "hcg_dct2d_lee_" + suf, "hcg_dct.c", false,
        fn(&hcg_dct2d_lee_f32, &hcg_dct2d_lee_f64));

    add("conv_direct", "Conv", t.dtype, KernelSig::kConv1D, SizeRule::kAny,
        "hcg_conv_direct_" + suf, "hcg_conv.c", true,
        fn(&hcg_conv_direct_f32, &hcg_conv_direct_f64));
    add("conv_blocked", "Conv", t.dtype, KernelSig::kConv1D, SizeRule::kAny,
        "hcg_conv_blocked_" + suf, "hcg_conv.c", false,
        fn(&hcg_conv_blocked_f32, &hcg_conv_blocked_f64));
    add("conv_fft", "Conv", t.dtype, KernelSig::kConv1D, SizeRule::kAny,
        "hcg_conv_fft_" + suf, "hcg_conv.c", false,
        fn(&hcg_conv_fft_f32, &hcg_conv_fft_f64));

    add("conv2d_direct", "Conv2D", t.dtype, KernelSig::kConv2D, SizeRule::kAny,
        "hcg_conv2d_direct_" + suf, "hcg_conv.c", true,
        fn(&hcg_conv2d_direct_f32, &hcg_conv2d_direct_f64));

    add("matmul_generic", "MatMul", t.dtype, KernelSig::kMatMul,
        SizeRule::kAny, "hcg_matmul_generic_" + suf, "hcg_mat.c", true,
        fn(&hcg_matmul_generic_f32, &hcg_matmul_generic_f64));
    add("matmul_unrolled", "MatMul", t.dtype, KernelSig::kMatMul,
        SizeRule::kMatSmall, "hcg_matmul_unrolled_" + suf, "hcg_mat.c", false,
        fn(&hcg_matmul_unrolled_f32, &hcg_matmul_unrolled_f64));
    add("matmul_blocked", "MatMul", t.dtype, KernelSig::kMatMul,
        SizeRule::kMatBlocked, "hcg_matmul_blocked_" + suf, "hcg_mat.c", false,
        fn(&hcg_matmul_blocked_f32, &hcg_matmul_blocked_f64));

    add("matinv_gauss", "MatInv", t.dtype, KernelSig::kMatInv, SizeRule::kAny,
        "hcg_matinv_gauss_" + suf, "hcg_mat.c", true,
        fn(&hcg_matinv_gauss_f32, &hcg_matinv_gauss_f64));
    add("matinv_adjugate", "MatInv", t.dtype, KernelSig::kMatInv,
        SizeRule::kMatSmall, "hcg_matinv_adjugate_" + suf, "hcg_mat.c", false,
        fn(&hcg_matinv_adjugate_f32, &hcg_matinv_adjugate_f64));

    add("matdet_gauss", "MatDet", t.dtype, KernelSig::kMatDet, SizeRule::kAny,
        "hcg_matdet_gauss_" + suf, "hcg_mat.c", true,
        fn(&hcg_matdet_gauss_f32, &hcg_matdet_gauss_f64));
    add("matdet_direct", "MatDet", t.dtype, KernelSig::kMatDet,
        SizeRule::kMatSmall, "hcg_matdet_direct_" + suf, "hcg_mat.c", false,
        fn(&hcg_matdet_direct_f32, &hcg_matdet_direct_f64));
  }

  return impls;
}

}  // namespace

CodeLibrary::CodeLibrary() : impls_(build_registry()) {}

const CodeLibrary& CodeLibrary::instance() {
  static const CodeLibrary library;
  return library;
}

std::vector<const KernelImpl*> CodeLibrary::implementations(
    std::string_view actor_type, DataType dtype) const {
  std::vector<const KernelImpl*> out;
  for (const KernelImpl& impl : impls_) {
    if (impl.actor_type == actor_type && impl.dtype == dtype) {
      out.push_back(&impl);
    }
  }
  return out;
}

const KernelImpl& CodeLibrary::general_implementation(
    std::string_view actor_type, DataType dtype) const {
  for (const KernelImpl& impl : impls_) {
    if (impl.actor_type == actor_type && impl.dtype == dtype && impl.general) {
      return impl;
    }
  }
  throw SynthesisError("no general implementation for actor type '" +
                       std::string(actor_type) + "' with element type " +
                       std::string(short_name(dtype)));
}

const KernelImpl* CodeLibrary::find(std::string_view id, DataType dtype) const {
  for (const KernelImpl& impl : impls_) {
    if (impl.id == id && impl.dtype == dtype) return &impl;
  }
  return nullptr;
}

std::string_view CodeLibrary::source(std::string_view source_key) const {
  if (source_key == "hcg_fft.c") return embedded::kFftSource;
  if (source_key == "hcg_dct.c") return embedded::kDctSource;
  if (source_key == "hcg_conv.c") return embedded::kConvSource;
  if (source_key == "hcg_mat.c") return embedded::kMatSource;
  throw InternalError("unknown kernel source key '" + std::string(source_key) +
                      "'");
}

void run_kernel(const KernelImpl& impl,
                const std::vector<const Tensor*>& inputs, Tensor* output) {
  require(!inputs.empty() && output != nullptr, "run_kernel: bad arguments");
  const Tensor& in0 = *inputs[0];
  const bool inverse =
      impl.actor_type == "IFFT" || impl.actor_type == "IFFT2D";

  switch (impl.sig) {
    case KernelSig::kFft1D: {
      auto fn = reinterpret_cast<void (*)(const float*, float*, int, int)>(
          const_cast<void*>(impl.host_fn));
      fn(in0.as<float>(), output->as<float>(), in0.elements(), inverse);
      return;
    }
    case KernelSig::kFft2D: {
      auto fn =
          reinterpret_cast<void (*)(const float*, float*, int, int, int)>(
              const_cast<void*>(impl.host_fn));
      fn(in0.as<float>(), output->as<float>(), in0.shape().dims[0],
         in0.shape().dims[1], inverse);
      return;
    }
    case KernelSig::kXform1D: {
      if (impl.dtype == DataType::kFloat32) {
        auto fn = reinterpret_cast<void (*)(const float*, float*, int)>(
            const_cast<void*>(impl.host_fn));
        fn(in0.as<float>(), output->as<float>(), in0.elements());
      } else {
        auto fn = reinterpret_cast<void (*)(const double*, double*, int)>(
            const_cast<void*>(impl.host_fn));
        fn(in0.as<double>(), output->as<double>(), in0.elements());
      }
      return;
    }
    case KernelSig::kXform2D: {
      const int rows = in0.shape().dims[0], cols = in0.shape().dims[1];
      if (impl.dtype == DataType::kFloat32) {
        auto fn = reinterpret_cast<void (*)(const float*, float*, int, int)>(
            const_cast<void*>(impl.host_fn));
        fn(in0.as<float>(), output->as<float>(), rows, cols);
      } else {
        auto fn = reinterpret_cast<void (*)(const double*, double*, int, int)>(
            const_cast<void*>(impl.host_fn));
        fn(in0.as<double>(), output->as<double>(), rows, cols);
      }
      return;
    }
    case KernelSig::kConv1D: {
      const Tensor& in1 = *inputs.at(1);
      if (impl.dtype == DataType::kFloat32) {
        auto fn = reinterpret_cast<void (*)(const float*, int, const float*,
                                            int, float*)>(
            const_cast<void*>(impl.host_fn));
        fn(in0.as<float>(), in0.elements(), in1.as<float>(), in1.elements(),
           output->as<float>());
      } else {
        auto fn = reinterpret_cast<void (*)(const double*, int, const double*,
                                            int, double*)>(
            const_cast<void*>(impl.host_fn));
        fn(in0.as<double>(), in0.elements(), in1.as<double>(), in1.elements(),
           output->as<double>());
      }
      return;
    }
    case KernelSig::kConv2D: {
      const Tensor& in1 = *inputs.at(1);
      const auto& sa = in0.shape().dims;
      const auto& sb = in1.shape().dims;
      if (impl.dtype == DataType::kFloat32) {
        auto fn = reinterpret_cast<void (*)(const float*, int, int,
                                            const float*, int, int, float*)>(
            const_cast<void*>(impl.host_fn));
        fn(in0.as<float>(), sa[0], sa[1], in1.as<float>(), sb[0], sb[1],
           output->as<float>());
      } else {
        auto fn = reinterpret_cast<void (*)(const double*, int, int,
                                            const double*, int, int, double*)>(
            const_cast<void*>(impl.host_fn));
        fn(in0.as<double>(), sa[0], sa[1], in1.as<double>(), sb[0], sb[1],
           output->as<double>());
      }
      return;
    }
    case KernelSig::kMatMul: {
      const Tensor& in1 = *inputs.at(1);
      const int n = in0.shape().dims[0];
      if (impl.dtype == DataType::kFloat32) {
        auto fn = reinterpret_cast<void (*)(const float*, const float*, float*,
                                            int)>(
            const_cast<void*>(impl.host_fn));
        fn(in0.as<float>(), in1.as<float>(), output->as<float>(), n);
      } else {
        auto fn = reinterpret_cast<void (*)(const double*, const double*,
                                            double*, int)>(
            const_cast<void*>(impl.host_fn));
        fn(in0.as<double>(), in1.as<double>(), output->as<double>(), n);
      }
      return;
    }
    case KernelSig::kMatInv:
    case KernelSig::kMatDet: {
      const int n = in0.shape().dims[0];
      if (impl.dtype == DataType::kFloat32) {
        auto fn = reinterpret_cast<void (*)(const float*, float*, int)>(
            const_cast<void*>(impl.host_fn));
        fn(in0.as<float>(), output->as<float>(), n);
      } else {
        auto fn = reinterpret_cast<void (*)(const double*, double*, int)>(
            const_cast<void*>(impl.host_fn));
        fn(in0.as<double>(), output->as<double>(), n);
      }
      return;
    }
  }
  throw InternalError("run_kernel: bad KernelSig");
}

}  // namespace hcg::kernels
