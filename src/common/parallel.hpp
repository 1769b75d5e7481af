// Thin OpenMP helpers.  The library parallelizes with plain OpenMP pragmas;
// these utilities centralize thread-count queries and simple index-range
// partitioning used by the blocked kernels.
#pragma once

#ifdef _OPENMP
#include <omp.h>
#endif

#include <cstddef>
#include <utility>

namespace hbd {

inline int max_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

inline int thread_id() {
#ifdef _OPENMP
  return omp_get_thread_num();
#else
  return 0;
#endif
}

/// Threads in the innermost enclosing parallel region (1 outside one).
inline int team_size() {
#ifdef _OPENMP
  return omp_get_num_threads();
#else
  return 1;
#endif
}

/// Contiguous slice [begin, end) of an n-element range assigned to chunk
/// `which` out of `chunks`, balanced to within one element.
inline std::pair<std::size_t, std::size_t> split_range(std::size_t n,
                                                       int chunks, int which) {
  const std::size_t base = n / static_cast<std::size_t>(chunks);
  const std::size_t rem = n % static_cast<std::size_t>(chunks);
  const std::size_t w = static_cast<std::size_t>(which);
  const std::size_t begin = w * base + (w < rem ? w : rem);
  const std::size_t len = base + (w < rem ? 1 : 0);
  return {begin, begin + len};
}

}  // namespace hbd
