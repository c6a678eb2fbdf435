#include "simulator/kernels.hpp"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <iterator>
#include <stdexcept>
#include <string>

#include "util/tokens.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define SYSGO_KERNELS_X86 1
#include <immintrin.h>
#else
#define SYSGO_KERNELS_X86 0
#endif

namespace sysgo::simulator {

namespace {

// ------------------------------------------------------------- round loops
//
// The two round loops every kernel shares.  `Rows` supplies the kernel's
// row ops: merge(dst, src, words) ORs src into dst and returns the bits dst
// gained; merge_both(a, b, words, da, db) makes both rows a | b.  Each ISA
// instantiates the loops inside its own target-attributed entry function,
// and always_inline keeps every instantiation there, so the loop and its
// std::popcount compile for that ISA.

/// Row ops for rows of one logical word.
struct OneWordRows {
  [[gnu::always_inline]] static int merge(std::uint64_t* dst,
                                          const std::uint64_t* src,
                                          std::size_t) {
    const int added = std::popcount(*src & ~*dst);
    *dst |= *src;
    return added;
  }
  [[gnu::always_inline]] static void merge_both(std::uint64_t* a,
                                                std::uint64_t* b, std::size_t,
                                                int& da, int& db) {
    const std::uint64_t u = *a | *b;
    da = std::popcount(u & ~*a);
    db = std::popcount(u & ~*b);
    *a = u;
    *b = u;
  }
};

[[gnu::always_inline]] inline std::uint64_t* row_of(const RowBlock& m,
                                                    int v) {
  return m.bits + static_cast<std::size_t>(v) * m.stride;
}

[[gnu::always_inline]] inline void add_full_rows(const RowBlock& m,
                                                 int filled) {
  if (filled != 0)
    std::atomic_ref<int>(*m.full_rows)
        .fetch_add(filled, std::memory_order_relaxed);
}

template <class Rows>
[[gnu::always_inline]] inline std::int64_t arcs_loop(
    RowBlock m, std::span<const graph::Arc> arcs) {
  int* const counts = m.counts;
  std::int64_t gained = 0;
  int filled = 0;
  for (const graph::Arc& a : arcs) {
    // A full head row can gain nothing, nor can any row from an empty
    // tail; the tail row is never written within a matching round, so both
    // count reads are stable.
    int& head = counts[a.head];
    if (head == m.items || counts[a.tail] == 0) continue;
    const int added = Rows::merge(row_of(m, a.head), row_of(m, a.tail),
                                  m.words);
    head += added;
    filled += head == m.items;
    gained += added;
  }
  add_full_rows(m, filled);
  return gained;
}

template <class Rows>
[[gnu::always_inline]] inline std::int64_t pairs_loop(
    RowBlock m, std::span<const graph::Arc> pairs) {
  int* const counts = m.counts;
  std::int64_t gained = 0;
  int filled = 0;
  for (const graph::Arc& p : pairs) {
    // A row gains nothing when it is full or its partner is empty.
    int& ca = counts[p.tail];
    int& cb = counts[p.head];
    const bool a_gains = ca != m.items && cb != 0;
    const bool b_gains = cb != m.items && ca != 0;
    if (!a_gains && !b_gains) continue;
    std::uint64_t* const ra = row_of(m, p.tail);
    std::uint64_t* const rb = row_of(m, p.head);
    int da = 0;
    int db = 0;
    if (!a_gains)
      db = Rows::merge(rb, ra, m.words);
    else if (!b_gains)
      da = Rows::merge(ra, rb, m.words);
    else
      Rows::merge_both(ra, rb, m.words, da, db);
    ca += da;
    cb += db;
    filled += (da != 0 && ca == m.items) + (db != 0 && cb == m.items);
    gained += da + db;
  }
  add_full_rows(m, filled);
  return gained;
}

// The kernel's row ops for multi-word rows, the one-word ops otherwise.
template <class Rows>
[[gnu::always_inline]] inline std::int64_t merge_arcs_with(
    const RowBlock& m, std::span<const graph::Arc> arcs) {
  return m.words == 1 ? arcs_loop<OneWordRows>(m, arcs)
                      : arcs_loop<Rows>(m, arcs);
}

template <class Rows>
[[gnu::always_inline]] inline std::int64_t merge_pairs_with(
    const RowBlock& m, std::span<const graph::Arc> pairs) {
  return m.words == 1 ? pairs_loop<OneWordRows>(m, pairs)
                      : pairs_loop<Rows>(m, pairs);
}

// ------------------------------------------------------------------ scalar

struct ScalarRows {
  [[gnu::always_inline]] static int merge(std::uint64_t* dst,
                                          const std::uint64_t* src,
                                          std::size_t words) {
    int added = 0;
    for (std::size_t w = 0; w < words; ++w) {
      added += std::popcount(src[w] & ~dst[w]);
      dst[w] |= src[w];
    }
    return added;
  }
  [[gnu::always_inline]] static void merge_both(std::uint64_t* a,
                                                std::uint64_t* b,
                                                std::size_t words, int& da,
                                                int& db) {
    da = 0;
    db = 0;
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t u = a[w] | b[w];
      da += std::popcount(u & ~a[w]);
      db += std::popcount(u & ~b[w]);
      a[w] = u;
      b[w] = u;
    }
  }
};

std::int64_t merge_arcs_scalar(const RowBlock& m,
                               std::span<const graph::Arc> arcs) {
  return merge_arcs_with<ScalarRows>(m, arcs);
}

std::int64_t merge_pairs_scalar(const RowBlock& m,
                                std::span<const graph::Arc> pairs) {
  return merge_pairs_with<ScalarRows>(m, pairs);
}

constexpr RowKernels kScalarKernels{KernelKind::kScalar, merge_arcs_scalar,
                                    merge_pairs_scalar};

#if SYSGO_KERNELS_X86

// -------------------------------------------------------------------- AVX2
//
// Popcount of a 256-bit vector via the vpshufb nibble LUT (Mula): per-byte
// counts from two 16-entry table lookups, then vpsadbw folds bytes into four
// 64-bit partial sums that accumulate across iterations.

#define SYSGO_AVX2_TARGET __attribute__((target("avx2")))

SYSGO_AVX2_TARGET inline __m256i popcount_bytes_avx2(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

SYSGO_AVX2_TARGET inline int hsum_epi64_avx2(__m256i v) {
  return static_cast<int>(_mm256_extract_epi64(v, 0) +
                          _mm256_extract_epi64(v, 1) +
                          _mm256_extract_epi64(v, 2) +
                          _mm256_extract_epi64(v, 3));
}

struct Avx2Rows {
  SYSGO_AVX2_TARGET static int merge(std::uint64_t* dst,
                                     const std::uint64_t* src,
                                     std::size_t words) {
    __m256i acc = _mm256_setzero_si256();
    std::size_t w = 0;
    for (; w + 4 <= words; w += 4) {
      const __m256i d =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + w));
      const __m256i s =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + w));
      const __m256i fresh = _mm256_andnot_si256(d, s);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w),
                          _mm256_or_si256(d, s));
      acc = _mm256_add_epi64(
          acc, _mm256_sad_epu8(popcount_bytes_avx2(fresh),
                               _mm256_setzero_si256()));
    }
    int added = hsum_epi64_avx2(acc);
    for (; w < words; ++w) {
      added += std::popcount(src[w] & ~dst[w]);
      dst[w] |= src[w];
    }
    return added;
  }

  SYSGO_AVX2_TARGET static void merge_both(std::uint64_t* a, std::uint64_t* b,
                                           std::size_t words, int& da,
                                           int& db) {
    __m256i acc_a = _mm256_setzero_si256();
    __m256i acc_b = _mm256_setzero_si256();
    std::size_t w = 0;
    for (; w + 4 <= words; w += 4) {
      const __m256i va =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
      const __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
      const __m256i u = _mm256_or_si256(va, vb);
      const __m256i zero = _mm256_setzero_si256();
      acc_a = _mm256_add_epi64(
          acc_a,
          _mm256_sad_epu8(popcount_bytes_avx2(_mm256_andnot_si256(va, vb)),
                          zero));
      acc_b = _mm256_add_epi64(
          acc_b,
          _mm256_sad_epu8(popcount_bytes_avx2(_mm256_andnot_si256(vb, va)),
                          zero));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + w), u);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(b + w), u);
    }
    da = hsum_epi64_avx2(acc_a);
    db = hsum_epi64_avx2(acc_b);
    for (; w < words; ++w) {
      const std::uint64_t u = a[w] | b[w];
      da += std::popcount(u & ~a[w]);
      db += std::popcount(u & ~b[w]);
      a[w] = u;
      b[w] = u;
    }
  }
};

SYSGO_AVX2_TARGET std::int64_t merge_arcs_avx2(
    const RowBlock& m, std::span<const graph::Arc> arcs) {
  return merge_arcs_with<Avx2Rows>(m, arcs);
}

SYSGO_AVX2_TARGET std::int64_t merge_pairs_avx2(
    const RowBlock& m, std::span<const graph::Arc> pairs) {
  return merge_pairs_with<Avx2Rows>(m, pairs);
}

constexpr RowKernels kAvx2Kernels{KernelKind::kAvx2, merge_arcs_avx2,
                                  merge_pairs_avx2};

// ------------------------------------------------------------------ AVX-512
//
// vpopcntq counts whole 64-bit lanes in one instruction; tails use masked
// loads/stores so no scalar peel is needed.
//
// GCC 12's avx512fintrin.h builds _mm512_andnot_si512 and
// _mm512_reduce_add_epi64 on _mm512_undefined_epi32(), which -O2 flags as
// "may be used uninitialized" even though the value is fully overwritten —
// suppress those two diagnostics for this block only.

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#define SYSGO_AVX512_TARGET \
  __attribute__((target("avx512f,avx512bw,avx512vl,avx512vpopcntdq")))

struct Avx512Rows {
  SYSGO_AVX512_TARGET static int merge(std::uint64_t* dst,
                                       const std::uint64_t* src,
                                       std::size_t words) {
    __m512i acc = _mm512_setzero_si512();
    std::size_t w = 0;
    for (; w + 8 <= words; w += 8) {
      const __m512i d = _mm512_loadu_si512(dst + w);
      const __m512i s = _mm512_loadu_si512(src + w);
      acc = _mm512_add_epi64(acc,
                             _mm512_popcnt_epi64(_mm512_andnot_si512(d, s)));
      _mm512_storeu_si512(dst + w, _mm512_or_si512(d, s));
    }
    if (w < words) {
      const __mmask8 m = static_cast<__mmask8>((1u << (words - w)) - 1u);
      const __m512i d = _mm512_maskz_loadu_epi64(m, dst + w);
      const __m512i s = _mm512_maskz_loadu_epi64(m, src + w);
      acc = _mm512_add_epi64(acc,
                             _mm512_popcnt_epi64(_mm512_andnot_si512(d, s)));
      _mm512_mask_storeu_epi64(dst + w, m, _mm512_or_si512(d, s));
    }
    return static_cast<int>(_mm512_reduce_add_epi64(acc));
  }

  SYSGO_AVX512_TARGET static void merge_both(std::uint64_t* a,
                                             std::uint64_t* b,
                                             std::size_t words, int& da,
                                             int& db) {
    __m512i acc_a = _mm512_setzero_si512();
    __m512i acc_b = _mm512_setzero_si512();
    std::size_t w = 0;
    for (; w + 8 <= words; w += 8) {
      const __m512i va = _mm512_loadu_si512(a + w);
      const __m512i vb = _mm512_loadu_si512(b + w);
      const __m512i u = _mm512_or_si512(va, vb);
      acc_a = _mm512_add_epi64(
          acc_a, _mm512_popcnt_epi64(_mm512_andnot_si512(va, vb)));
      acc_b = _mm512_add_epi64(
          acc_b, _mm512_popcnt_epi64(_mm512_andnot_si512(vb, va)));
      _mm512_storeu_si512(a + w, u);
      _mm512_storeu_si512(b + w, u);
    }
    if (w < words) {
      const __mmask8 m = static_cast<__mmask8>((1u << (words - w)) - 1u);
      const __m512i va = _mm512_maskz_loadu_epi64(m, a + w);
      const __m512i vb = _mm512_maskz_loadu_epi64(m, b + w);
      const __m512i u = _mm512_or_si512(va, vb);
      acc_a = _mm512_add_epi64(
          acc_a, _mm512_popcnt_epi64(_mm512_andnot_si512(va, vb)));
      acc_b = _mm512_add_epi64(
          acc_b, _mm512_popcnt_epi64(_mm512_andnot_si512(vb, va)));
      _mm512_mask_storeu_epi64(a + w, m, u);
      _mm512_mask_storeu_epi64(b + w, m, u);
    }
    da = static_cast<int>(_mm512_reduce_add_epi64(acc_a));
    db = static_cast<int>(_mm512_reduce_add_epi64(acc_b));
  }
};

SYSGO_AVX512_TARGET std::int64_t merge_arcs_avx512(
    const RowBlock& m, std::span<const graph::Arc> arcs) {
  return merge_arcs_with<Avx512Rows>(m, arcs);
}

SYSGO_AVX512_TARGET std::int64_t merge_pairs_avx512(
    const RowBlock& m, std::span<const graph::Arc> pairs) {
  return merge_pairs_with<Avx512Rows>(m, pairs);
}

constexpr RowKernels kAvx512Kernels{KernelKind::kAvx512, merge_arcs_avx512,
                                    merge_pairs_avx512};

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // SYSGO_KERNELS_X86

// ---------------------------------------------------------------- dispatch

// One name per KernelKind enumerator, in enum order.
constexpr const char* kKernelNames[] = {"scalar", "avx2", "avx512"};
static_assert(std::size(kKernelNames) ==
                  static_cast<std::size_t>(kKernelKindCount),
              "one name per KernelKind enumerator");

bool cpu_supports(KernelKind k) noexcept {
#if SYSGO_KERNELS_X86
  switch (k) {
    case KernelKind::kScalar:
      return true;
    case KernelKind::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case KernelKind::kAvx512:
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0 &&
             __builtin_cpu_supports("avx512vl") != 0 &&
             __builtin_cpu_supports("avx512vpopcntdq") != 0;
  }
  return false;
#else
  return k == KernelKind::kScalar;
#endif
}

/// Resolve the startup choice: SYSGO_FORCE_KERNEL wins (unknown/unsupported
/// values throw — a forced kernel silently falling back would defeat the
/// CI matrix), else the widest supported ISA.
const RowKernels& resolve_initial() {
  if (const char* force = std::getenv("SYSGO_FORCE_KERNEL");
      force != nullptr && *force != '\0') {
    const auto k = parse_kernel_name(force);
    if (!k)
      throw std::runtime_error(
          "SYSGO_FORCE_KERNEL: unknown kernel '" + std::string(force) +
          "' (expected scalar|avx2|avx512)");
    return kernel_table(*k);
  }
  if (kernel_supported(KernelKind::kAvx512))
    return kernel_table(KernelKind::kAvx512);
  if (kernel_supported(KernelKind::kAvx2))
    return kernel_table(KernelKind::kAvx2);
  return kScalarKernels;
}

/// Set only by force_kernel (tests and bench arms); null selects the
/// dispatch resolved at first use.  kernels() only reads it, from any
/// thread, so concurrent first calls no longer race on a lazy write.
std::atomic<const RowKernels*> g_forced{nullptr};

}  // namespace

bool kernel_compiled(KernelKind k) noexcept {
#if SYSGO_KERNELS_X86
  return k == KernelKind::kScalar || k == KernelKind::kAvx2 ||
         k == KernelKind::kAvx512;
#else
  return k == KernelKind::kScalar;
#endif
}

bool kernel_supported(KernelKind k) noexcept {
  return kernel_compiled(k) && cpu_supports(k);
}

const RowKernels& kernel_table(KernelKind k) {
  if (!kernel_supported(k))
    throw std::runtime_error(std::string("kernel '") + kernel_name(k) +
                             "' is not supported on this host");
  switch (k) {
#if SYSGO_KERNELS_X86
    case KernelKind::kAvx2:
      return kAvx2Kernels;
    case KernelKind::kAvx512:
      return kAvx512Kernels;
#endif
    default:
      return kScalarKernels;
  }
}

const RowKernels& kernels() {
  // Magic-static once: the throw from a bad SYSGO_FORCE_KERNEL propagates
  // to the first caller (and re-arms on the next call, but a bad env var is
  // fatal to any entry point anyway).
  static const RowKernels& initial = resolve_initial();
  const RowKernels* forced = g_forced.load(std::memory_order_acquire);
  return forced != nullptr ? *forced : initial;
}

KernelKind active_kernel() { return kernels().kind; }

const char* kernel_name(KernelKind k) noexcept {
  return util::row_of(kKernelNames, k);
}

std::optional<KernelKind> parse_kernel_name(std::string_view name) noexcept {
  return util::enum_of<KernelKind>(kKernelNames, name);
}

KernelKind force_kernel(KernelKind k) {
  const KernelKind prev = kernels().kind;  // ensures dispatch ran
  g_forced.store(&kernel_table(k), std::memory_order_release);
  return prev;
}

}  // namespace sysgo::simulator
