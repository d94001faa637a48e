// Parallel-for over independent coarse tasks.
//
// for_each_index runs fn(0) ... fn(n-1): inline on the calling thread
// when n_jobs <= 1, otherwise on min(n_jobs, n) threads that claim
// indices from one shared counter. It exists so the multi-trial runner
// (core/trials.h), the fault matrix and the workload matrix can spread
// whole simulations across cores. Determinism is the caller's job:
// tasks must not share mutable state, and outputs must be stored by
// index, never by completion order.

#ifndef RONPATH_UTIL_PARALLEL_H_
#define RONPATH_UTIL_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace ronpath {

// Every task runs even when some throw; the exception of the lowest
// failing index is rethrown after all of them finish.
void for_each_index(std::size_t n, std::size_t n_jobs,
                    const std::function<void(std::size_t)>& fn);

}  // namespace ronpath

#endif  // RONPATH_UTIL_PARALLEL_H_
