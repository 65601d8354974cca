#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <utility>
#include <vector>

namespace drn {

namespace {

/// True on a thread while it runs the body of a multi-worker parallel_for.
thread_local bool t_in_parallel_body = false;

/// The lowest-indexed failure one worker saw (index == n: none).
struct Failure {
  std::size_t index;
  std::exception_ptr error;
};

}  // namespace

unsigned hardware_jobs() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void parallel_for(std::size_t n, unsigned workers,
                  const std::function<void(std::size_t)>& body) {
  const std::size_t threads =
      t_in_parallel_body ? 1 : std::min<std::size_t>(std::max(1u, workers), n);
  std::vector<Failure> failures(std::max<std::size_t>(threads, 1),
                                Failure{n, nullptr});
  std::atomic<std::size_t> next{0};
  const auto work = [&](Failure& first) {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        body(i);
      } catch (...) {
        if (i < first.index) first = {i, std::current_exception()};
      }
    }
  };

  if (threads <= 1) {
    work(failures[0]);
  } else {
    std::vector<std::jthread> helpers;
    helpers.reserve(threads - 1);
    for (std::size_t w = 1; w < threads; ++w)
      helpers.emplace_back([&work, &failures, w] {
        t_in_parallel_body = true;
        work(failures[w]);
      });
    t_in_parallel_body = true;
    work(failures[0]);
    t_in_parallel_body = false;
    helpers.clear();  // joins
  }

  const auto lowest = std::min_element(
      failures.begin(), failures.end(),
      [](const Failure& a, const Failure& b) { return a.index < b.index; });
  if (lowest->error) std::rethrow_exception(lowest->error);
}

void parallel_row_blocks(
    std::size_t rows,
    const std::function<void(std::size_t, std::size_t)>& body) {
  const std::size_t blocks = (rows + kRowsPerBlock - 1) / kRowsPerBlock;
  parallel_for(blocks, hardware_jobs(), [&](std::size_t b) {
    const std::size_t begin = b * kRowsPerBlock;
    body(begin, std::min(rows, begin + kRowsPerBlock));
  });
}

}  // namespace drn
