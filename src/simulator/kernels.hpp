// Runtime-dispatched SIMD kernels for word-packed knowledge-row unions.
//
// Every gossip run — `sysgo simulate`, the sweep engine's simulate jobs,
// synthesis objectives — bottoms out in the same inner loop over
// KnowledgeMatrix rows: OR two 64-bit word arrays and count the bits the
// destination gained.  This layer holds that loop, as two operations
// (merge_delta, merge_both_delta), in three interchangeable implementations:
//
//   scalar   portable uint64_t loop + std::popcount (always compiled)
//   avx2     256-bit OR, popcount via the vpshufb nibble-LUT + vpsadbw
//   avx512   512-bit OR, popcount via vpopcntq, masked tail loads
//
// Selection happens exactly once, at first use: the env override
// SYSGO_FORCE_KERNEL=scalar|avx2|avx512 wins if set (unsupported forces
// throw, so CI can gate on `sysgo kernels --have`), otherwise the widest
// kernel the CPU reports via CPUID is taken.  All kernels are exact — the
// same words and the same counts for any input — so every consumer is
// byte-identical across kernels; tests/simulator/test_kernels.cpp holds the
// differential suite.
//
// The kernels take arbitrary word counts and unaligned pointers (tail words
// are masked / peeled); alignment and padding are the *caller's* perf
// lever — KnowledgeMatrix pads rows to 64-byte multiples on 64-byte
// boundaries so the hot path never splits a cache line and never takes the
// tail path.
#pragma once

#include <cstdint>
#include <cstddef>

namespace sysgo::simulator {

enum class KernelKind : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };
inline constexpr int kKernelKindCount = 3;

/// The row-union operation set.  All counts are exact bit deltas.
struct RowKernels {
  KernelKind kind = KernelKind::kScalar;
  /// dst |= src over `words`; returns popcount(src & ~dst_old) — the number
  /// of bits dst gained.
  int (*merge_delta)(std::uint64_t* dst, const std::uint64_t* src,
                     std::size_t words);
  /// a and b both become a | b; deltas[0]/deltas[1] = bits a/b gained.
  void (*merge_both_delta)(std::uint64_t* a, std::uint64_t* b,
                           std::size_t words, int deltas[2]);
};

/// Kernel `k` was compiled into this binary (x86 builds compile all three;
/// other architectures only the scalar one).
[[nodiscard]] bool kernel_compiled(KernelKind k) noexcept;

/// kernel_compiled(k) and the running CPU supports its ISA.
[[nodiscard]] bool kernel_supported(KernelKind k) noexcept;

/// Operation table of a specific kernel.  Throws std::runtime_error when
/// the kernel is not supported on this host.
[[nodiscard]] const RowKernels& kernel_table(KernelKind k);

/// The active kernel's operation table.  First call resolves the dispatch:
/// SYSGO_FORCE_KERNEL if set (throws std::runtime_error when it names an
/// unknown or unsupported kernel), else the widest supported ISA.
[[nodiscard]] const RowKernels& kernels();

[[nodiscard]] KernelKind active_kernel();
[[nodiscard]] const char* kernel_name(KernelKind k) noexcept;

/// Swap the active kernel, returning the previous one.  Process-global and
/// not synchronized — a test/bench hook, not an API for concurrent phases.
/// Throws std::runtime_error when `k` is unsupported on this host.
KernelKind force_kernel(KernelKind k);

/// RAII form of force_kernel for differential tests and bench arms.
class ScopedKernel {
 public:
  explicit ScopedKernel(KernelKind k) : prev_(force_kernel(k)) {}
  ~ScopedKernel() { force_kernel(prev_); }
  ScopedKernel(const ScopedKernel&) = delete;
  ScopedKernel& operator=(const ScopedKernel&) = delete;

 private:
  KernelKind prev_;
};

}  // namespace sysgo::simulator
