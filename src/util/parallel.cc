#include "util/parallel.h"

#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace ronpath {

void for_each_index(std::size_t n, std::size_t n_jobs,
                    const std::function<void(std::size_t)>& fn) {
  if (n_jobs <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<std::exception_ptr> errors(n);
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  {
    // jthreads join on destruction, also when starting a later one throws.
    const std::size_t n_threads = n_jobs < n ? n_jobs : n;
    std::vector<std::jthread> threads;
    threads.reserve(n_threads);
    for (std::size_t t = 0; t < n_threads; ++t) threads.emplace_back(worker);
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace ronpath
