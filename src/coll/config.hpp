// Vocabulary shared by the blocking collectives (collectives.hpp) and the
// schedule builders and executor (schedule.hpp): the algorithm selectors,
// the tunables, and the elementwise reduction kernel.
#pragma once

#include <cstddef>

#include "core/outlier.hpp"
#include "runtime/comm.hpp"

namespace nncomm::coll {

enum class AllgathervAlgo {
    Auto,               ///< outlier-aware selection (the paper's design)
    Ring,               ///< MPICH2 large-message baseline
    RecursiveDoubling,  ///< power-of-two ranks only
    Dissemination,      ///< Bruck-style, any rank count
};

enum class AlltoallwAlgo {
    Auto,        ///< Binned
    RoundRobin,  ///< MPICH2 baseline incl. zero-size synchronization
    Binned,      ///< zero/small/large bins, small processed first
};

/// Tunables shared by the nonuniform-aware collectives.
struct CollConfig {
    AllgathervAlgo allgatherv_algo = AllgathervAlgo::Auto;
    AlltoallwAlgo alltoallw_algo = AlltoallwAlgo::Auto;
    /// Eq. 1 parameters for Auto allgatherv.
    OutlierConfig outlier{};
    /// Uniform-volume heuristic (mirrors MPICH2): total payload at or above
    /// this uses Ring, below it RecursiveDoubling/Dissemination.
    std::size_t long_msg_total = 512 * 1024;
    /// Alltoallw Binned: send volumes strictly below this are "small".
    std::size_t small_msg_threshold = 4 * 1024;
};

enum class ReduceOp { Sum, Max, Min };

namespace detail {
template <typename T>
void apply_op(ReduceOp op, T* acc, const T* in, std::size_t n) {
    switch (op) {
        case ReduceOp::Sum:
            for (std::size_t i = 0; i < n; ++i) acc[i] += in[i];
            break;
        case ReduceOp::Max:
            for (std::size_t i = 0; i < n; ++i) acc[i] = acc[i] < in[i] ? in[i] : acc[i];
            break;
        case ReduceOp::Min:
            for (std::size_t i = 0; i < n; ++i) acc[i] = in[i] < acc[i] ? in[i] : acc[i];
            break;
    }
}
}  // namespace detail

}  // namespace nncomm::coll
