// The library's one threading primitive: a blocking parallel loop over
// independent iterations.
//
// The runner fans trials across it, and the dense setup passes (gain matrix,
// scheduled-network neighbour scan, min-energy graph) split their rows into
// blocks on it. Contract (see DESIGN.md "Runner determinism contract"):
//   * iterations must not share mutable state: each writes only its own
//     outputs, so results do not depend on the worker count or on scheduling;
//   * every iteration runs to completion, then the exception of the
//     LOWEST-indexed failing iteration is re-thrown, so the error a caller
//     sees does not depend on scheduling either;
//   * a call made from inside the body of a multi-worker parallel_for runs
//     serially on the calling thread, so nested loops (a sweep's trials, each
//     building its matrix) never oversubscribe the cores.
#pragma once

#include <cstddef>
#include <functional>

namespace drn {

/// std::thread::hardware_concurrency clamped to at least 1.
[[nodiscard]] unsigned hardware_jobs();

/// Runs body(0) .. body(n-1) on up to `workers` threads (the calling thread
/// is one of them; 0 counts as 1) and returns when all have completed.
void parallel_for(std::size_t n, unsigned workers,
                  const std::function<void(std::size_t)>& body);

/// Rows per block of parallel_row_blocks: enough work per block to amortise
/// scheduling, few enough rows that M = 4096 gives 64 blocks to balance.
inline constexpr std::size_t kRowsPerBlock = 64;

/// Splits rows [0, rows) into consecutive blocks of kRowsPerBlock and runs
/// body(begin, end) for each on hardware_jobs() workers. Same contract as
/// parallel_for; an exception re-thrown is the one of the lowest block.
void parallel_row_blocks(
    std::size_t rows,
    const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace drn
