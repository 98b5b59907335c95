// The benchmark models of the paper's evaluation (§4) plus the worked
// example of Figure 4, parameterized by size so benches can sweep scales.
//
//   FFT / DCT / Conv      — intensive computing actor models
//   HighPass / LowPass / FIR — batch computing actor models
//
// All are built with the public ModelBuilder API, so they double as API
// examples; sizes default to the paper's (FFT-1024, DCT-256, Conv-1024x64,
// filters over 1024-sample frames, FIR on i32*1024).
#pragma once

#include <cstdint>
#include <vector>

#include "model/builder.hpp"
#include "model/model.hpp"
#include "model/tensor.hpp"

namespace hcg::benchmodels {

/// x:c64[n] -> FFT -> y.
Model fft_model(int n = 1024);

/// x:f32[n] -> DCT -> y.
Model dct_model(int n = 256);

/// x:f32[n] (+ constant taps f32[k]) -> Conv -> y:f32[n+k-1].
Model conv_model(int n = 1024, int k = 64);

/// High-pass filter frame: d = x - w; m = d * taps; s = m + w; y = max(s, 0).
/// Four connected f32 batch actors; HCG fuses m+w into a multiply-add.
Model highpass_model(int n = 1024);

/// Low-pass filter frame: a = x + w; g = a * 0.5 (Gain); d = x - g; y = |d|.
Model lowpass_model(int n = 1024);

/// FIR frame (paper §4.1): m = Mul(x, taps) then y = Add(m, acc), i32*n.
/// HCG maps the pair onto a single vector multiply-accumulate.
Model fir_model(int n = 1024);

/// The sample model of Figure 4: inputs a,b,c,d (i32[n]);
///   Sub = b - c;  Shr_out = (a + Sub) >> 1;  Add_out = Sub + Sub * d.
/// Expected NEON mapping (Listing 1): vsubq_s32, vhaddq_s32, vmlaq_s32.
Model paper_fig4_model(int n = 4);

/// A chain of `actors` alternating batch Add/Mul actors over f32[n] — the
/// §4.3 threshold ablation workload.
Model batch_chain_model(int actors, int n = 1024);

/// A wide farm of `actors` independent intensive actors (FFT / DCT / Conv /
/// MatMul round-robin), each with its own Inport(s) and Outport — the
/// Algorithm 1 workload: every actor triggers a pre-calculation sweep.
/// With `distinct_keys` every actor gets a unique (type, dtype, shapes)
/// selection key; otherwise the sizes cycle through four variants per kind,
/// so 64 actors share 16 keys and the in-run SelectionMemo collapses the
/// rest.  Sizes stay small enough that one sweep
/// is milliseconds, not seconds.
Model intensive_farm_model(int actors, bool distinct_keys = true);

/// A pipeline with a deliberate scale boundary (the -O2 cross-scale fusion
/// workload): s = a + b; m = s * b; y = m - a over i8[n].  The NEON table
/// has no i8 multiply, so `m` is translated conventionally — a scalar loop
/// splitting two vector regions (HCG407).  At -O2 the scalar loop
/// strip-mines into the vector loop's shape and the whole pipeline fuses.
Model mixed_pipeline_model(int n = 1024);

/// A single MatMul over f32[n x n] (default well above the n<=4 unrolled
/// forms): Algorithm 1 measures the generic row-column kernel against the
/// register-blocked one on the target.
Model matmul_pipeline_model(int n = 96);

/// The range-driven lane-narrowing workload: a twenty-actor i32 pipeline
/// whose declared Inport ranges (a in ±100, b in ±50) prove every
/// intermediate fits i16 (interleaved Shr stages cap the growth; the
/// widest, z3, stays within ±11125), so at -O1 the whole region re-plans
/// at i16 — 8 NEON lanes instead of 4, with the two boundary cast passes
/// amortized over the full chain.  With `declared_ranges` false the same
/// graph carries no range facts and must stay at i32, which is the bench
/// comparator for the narrowing win.
Model rangepipe_model(int n = 1024, bool declared_ranges = true);

/// The six evaluation models at paper sizes, in Table 2 order.
std::vector<Model> paper_models();

/// Deterministic random inputs for a *resolved* model's Inports.  Integer
/// signals stay within ±2^20 so vector and scalar halving-add semantics
/// agree; float signals are in [-1, 1).
std::vector<Tensor> workload(const Model& resolved_model,
                             std::uint64_t seed = 42);

}  // namespace hcg::benchmodels
