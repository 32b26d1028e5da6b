/**
 * @file
 * Host instruction-set probe.
 *
 * Reports the widest vector ISA the CPU supports, so run provenance
 * (the benchmark ledger's host line) can record the machine a
 * measurement came from. Nothing in the model dispatches on it.
 */

#ifndef SWCC_CORE_SIMD_HH
#define SWCC_CORE_SIMD_HH

namespace swcc::simd
{

/** Vector instruction set of the host CPU. */
enum class Isa
{
    /** No vector ISA this probe knows of. */
    Scalar,
    /** AArch64 NEON. */
    Neon,
    /** x86-64 AVX2. */
    Avx2,
};

/** The widest instruction set the CPU supports (detected once). */
Isa activeIsa();

/** Human-readable name ("avx2", "neon", "scalar"). */
const char *isaName(Isa isa);

} // namespace swcc::simd

#endif // SWCC_CORE_SIMD_HH
