// The code library of Algorithm 1: a one-to-many map from intensive actor
// type to candidate implementations, each carrying size/type constraints
// (canHandleDataType / canHandleDataSize in the paper), a host-callable
// function for pre-calculation timing, and the C source to embed into
// generated code.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "model/model.hpp"
#include "model/tensor.hpp"

namespace hcg::kernels {

/// The C calling convention family of a kernel.
enum class KernelSig : std::uint8_t {
  kFft1D,    // (const float*, float*, int n, int inverse)
  kFft2D,    // (const float*, float*, int rows, int cols, int inverse)
  kXform1D,  // (const T*, T*, int n)
  kXform2D,  // (const T*, T*, int rows, int cols)
  kConv1D,   // (const T*, int na, const T*, int nb, T*)
  kConv2D,   // (const T*, int ar, int ac, const T*, int br, int bc, T*)
  kMatMul,   // (const T*, const T*, T*, int n)
  kMatInv,   // (const T*, T*, int n)
  kMatDet,   // (const T*, T*, int n)
};

/// canHandleDataSize constraint.
enum class SizeRule : std::uint8_t {
  kAny,       // any input size
  kPow2,      // every dimension a power of two
  kPow4,      // every dimension a power of four
  kMatSmall,  // square matrix with n <= 4
  kMatBlocked,  // square matrix with n >= 16 (two or more 8-column blocks)
};

bool size_rule_accepts(SizeRule rule, const std::vector<Shape>& in_shapes);

struct KernelImpl {
  std::string id;           // "fft_radix4"
  std::string actor_type;   // "FFT"
  DataType dtype;           // element type of input 0 (c64 for FFT family)
  KernelSig sig = KernelSig::kXform1D;
  SizeRule size_rule = SizeRule::kAny;
  std::string c_function;   // symbol emitted into generated code
  std::string source_key;   // embedded source file providing it
  bool general = false;     // the fallback conventional generators also use
  const void* host_fn = nullptr;

  /// canHandleDataType && canHandleDataSize.
  bool can_handle(DataType type, const std::vector<Shape>& in_shapes) const;
};

class CodeLibrary {
 public:
  /// The built-in library (loadCodeLibrary in Algorithm 1).
  static const CodeLibrary& instance();

  /// All implementations registered for an actor type, most specialized
  /// first is NOT guaranteed — callers filter via can_handle().
  std::vector<const KernelImpl*> implementations(std::string_view actor_type,
                                                 DataType dtype) const;

  /// The general implementation (Algorithm 1 line 8); throws
  /// hcg::SynthesisError if the type has none.
  const KernelImpl& general_implementation(std::string_view actor_type,
                                           DataType dtype) const;

  /// Lookup by id + dtype; nullptr if absent.
  const KernelImpl* find(std::string_view id, DataType dtype) const;

  /// The embedded C source text for a source key ("hcg_fft.c", ...).
  std::string_view source(std::string_view source_key) const;

  const std::vector<KernelImpl>& all() const { return impls_; }

 private:
  CodeLibrary();
  std::vector<KernelImpl> impls_;
};

/// Runs a kernel on tensors in-process (pre-calculation and tests).
/// `inputs` are the actor's input tensors in port order; `output` must be
/// pre-allocated with the actor's output spec.
void run_kernel(const KernelImpl& impl,
                const std::vector<const Tensor*>& inputs, Tensor* output);

}  // namespace hcg::kernels
