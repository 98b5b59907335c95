/* kernels.h — host-side prototypes for the intensive-actor kernel library.
 *
 * The definitions live in src/kernels/c/ (one file per family), which are compiled into the
 * hcg_kernels library (for Algorithm 1's pre-calculation timing and for
 * tests) and embedded as text into generated C code (for deployment).
 */
#pragma once

#ifdef __cplusplus
extern "C" {
#endif

/* FFT family: interleaved complex float, inverse includes 1/n. */
void hcg_fft_dft(const float* in, float* out, int n, int inverse);
void hcg_fft_radix2_tab(const float* in, float* out, int n, int inverse);
void hcg_fft_radix4(const float* in, float* out, int n, int inverse);
void hcg_fft_mixed(const float* in, float* out, int n, int inverse);
void hcg_fft_bluestein(const float* in, float* out, int n, int inverse);
void hcg_fft2d_dft(const float* in, float* out, int rows, int cols,
                   int inverse);
void hcg_fft2d_radix2(const float* in, float* out, int rows, int cols,
                      int inverse);

#define HCG_KERNELS_DECL(T, SUF)                                             \
  void hcg_dct_naive_##SUF(const T* in, T* out, int n);                      \
  void hcg_idct_naive_##SUF(const T* in, T* out, int n);                     \
  void hcg_dct_lee_##SUF(const T* in, T* out, int n);                        \
  void hcg_idct_lee_##SUF(const T* in, T* out, int n);                       \
  void hcg_dct_fft_##SUF(const T* in, T* out, int n);                        \
  void hcg_dct2d_naive_##SUF(const T* in, T* out, int rows, int cols);       \
  void hcg_dct2d_lee_##SUF(const T* in, T* out, int rows, int cols);         \
  void hcg_conv_direct_##SUF(const T* a, int na, const T* b, int nb, T* out);\
  void hcg_conv_blocked_##SUF(const T* a, int na, const T* b, int nb,        \
                              T* out);                                       \
  void hcg_conv_fft_##SUF(const T* a, int na, const T* b, int nb, T* out);   \
  void hcg_conv2d_direct_##SUF(const T* a, int ar, int ac, const T* b,       \
                               int br, int bc, T* out);                      \
  void hcg_matmul_generic_##SUF(const T* a, const T* b, T* out, int n);      \
  void hcg_matmul_unrolled_##SUF(const T* a, const T* b, T* out, int n);     \
  void hcg_matmul_blocked_##SUF(const T* a, const T* b, T* out, int n);      \
  void hcg_matinv_gauss_##SUF(const T* a, T* out, int n);                    \
  void hcg_matinv_adjugate_##SUF(const T* a, T* out, int n);                 \
  void hcg_matdet_gauss_##SUF(const T* a, T* out, int n);                    \
  void hcg_matdet_direct_##SUF(const T* a, T* out, int n);

HCG_KERNELS_DECL(float, f32)
HCG_KERNELS_DECL(double, f64)

#undef HCG_KERNELS_DECL

#ifdef __cplusplus
}
#endif
