// Runtime-dispatched SIMD kernels for word-packed knowledge-row unions.
//
// Every gossip run — `sysgo simulate`, the sweep engine's simulate jobs,
// synthesis objectives — bottoms out in the same inner loop over
// KnowledgeMatrix rows: OR two 64-bit word arrays and count the bits the
// destination gained.  This layer holds that loop as two round operations
// — merge_arcs over a half-duplex round's arcs, merge_pairs over a
// full-duplex round's pairs — so a round costs one indirect call, not one
// per link.  Each op skips a link whose destination row is full or whose
// source row is empty, keeps the per-row counts and returns the bits
// gained, and adds the rows it filled to the full-row tally once per call.
// It comes in three interchangeable implementations:
//
//   scalar   portable uint64_t loop + std::popcount (always compiled)
//   avx2     256-bit OR, popcount via the vpshufb nibble-LUT + vpsadbw
//   avx512   512-bit OR, popcount via vpopcntq, masked tail loads
//
// Rows of one logical word (item windows of at most 64 items) take a plain
// uint64_t OR + std::popcount branch in every kernel instead of a vector
// pass.  The round loop is one inline template in kernels.cpp,
// instantiated inside each ISA's target-attributed function, so in the
// AVX2 and AVX-512 kernels that popcount is the native popcntq
// (their target ISAs include POPCNT); the library is built with no -m
// flag, and the scalar kernel keeps the portable libgcc call.  CI checks
// the disassembly for it.
//
// Selection happens exactly once, at first use: the env override
// SYSGO_FORCE_KERNEL=scalar|avx2|avx512 wins if set (unsupported forces
// throw, so CI can gate on `sysgo kernels --have`), otherwise the widest
// kernel the CPU reports via CPUID is taken.  All kernels are exact — the
// same words and the same counts for any input — so every consumer is
// byte-identical across kernels; tests/simulator/test_kernels.cpp holds the
// differential suite.
//
// The kernels merge each row's logical words only, never the padding up to
// the stride, and take any stride and unaligned rows (tail words are
// masked / peeled); alignment is the *caller's* perf lever —
// KnowledgeMatrix starts every row on a 64-byte boundary so vector loads
// never split a cache line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "graph/digraph.hpp"

namespace sysgo::simulator {

enum class KernelKind : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };
inline constexpr int kKernelKindCount = 3;

/// The rows a round op merges: a KnowledgeMatrix's storage and counts.
/// Bits of a row's words past its items are zero, and counts[v] is row v's
/// popcount.  Words past `words` in a row's stride are neither read nor
/// written.
struct RowBlock {
  std::uint64_t* bits = nullptr;  // row v starts at bits + v*stride
  std::size_t stride = 0;         // words from one row start to the next
  std::size_t words = 0;          // words merged per row; 1: one-word path
  int* counts = nullptr;          // items known per row
  int items = 0;                  // a row with this many items is full
  int* full_rows = nullptr;       // rows at `items`; one atomic add per call
};

/// The round-merge operation set.  All counts are exact bit deltas.  Within
/// a round the links form a matching, so calls on disjoint sub-spans of one
/// round may run concurrently: each writes only its own links' rows and
/// counts, and adds to *full_rows atomically.
struct RowKernels {
  KernelKind kind = KernelKind::kScalar;
  /// Half-duplex round: head row |= tail row for every arc.  Returns the
  /// bits the rows gained.
  std::int64_t (*merge_arcs)(const RowBlock& rows,
                             std::span<const graph::Arc> arcs);
  /// Full-duplex round: both rows of every tail < head pair become their
  /// union.  Returns the bits the rows gained.
  std::int64_t (*merge_pairs)(const RowBlock& rows,
                              std::span<const graph::Arc> pairs);
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
