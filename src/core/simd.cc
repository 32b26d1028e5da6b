#include "core/simd.hh"

namespace swcc::simd
{

namespace
{

Isa
detectIsa()
{
#if defined(__aarch64__)
    return Isa::Neon;
#elif defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    if (__builtin_cpu_supports("avx2"))
        return Isa::Avx2;
    return Isa::Scalar;
#else
    return Isa::Scalar;
#endif
}

} // namespace

Isa
activeIsa()
{
    static const Isa detected = detectIsa();
    return detected;
}

const char *
isaName(Isa isa)
{
    switch (isa) {
      case Isa::Avx2:
        return "avx2";
      case Isa::Neon:
        return "neon";
      case Isa::Scalar:
        break;
    }
    return "scalar";
}

} // namespace swcc::simd
