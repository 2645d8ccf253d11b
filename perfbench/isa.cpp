// Compiled with the kernel layer's codegen flags (see CMakeLists.txt), so
// the predefined macros below describe the ISA the GEMM kernels target.
#include <string>

namespace perfbench {

std::string kernel_isa_flags() {
  std::string s;
  const auto add = [&s](const char* f) {
    if (!s.empty()) s += ' ';
    s += f;
  };
#ifdef __SSE4_2__
  add("sse4.2");
#endif
#ifdef __AVX__
  add("avx");
#endif
#ifdef __AVX2__
  add("avx2");
#endif
#ifdef __FMA__
  add("fma");
#endif
#ifdef __AVX512F__
  add("avx512f");
#endif
#ifdef __AVX512BW__
  add("avx512bw");
#endif
#ifdef __AVX512VL__
  add("avx512vl");
#endif
#ifdef __ARM_NEON
  add("neon");
#endif
  return s.empty() ? "baseline" : s;
}

}  // namespace perfbench
