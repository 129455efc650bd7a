#include "petsckit/patch.hpp"

#include "coll/collectives.hpp"

namespace nncomm::pk {

PatchGather::PatchGather(const DMDA& source, const GridBox& patch) : patch_(patch) {
    NNCOMM_CHECK_MSG(source.dof() == 1, "PatchGather: dof must be 1");
    rt::Comm& comm = source.comm();

    // This rank's own needs, in patch order; only the volumes are shared.
    std::vector<Index> needed;
    source.append_global_indices(patch, needed);
    const auto mine = static_cast<Index>(needed.size());
    std::vector<Index> counts(static_cast<std::size_t>(comm.size()));
    coll::allgather(comm, &mine, sizeof(mine), dt::Datatype::byte(), counts.data(),
                    sizeof(mine), dt::Datatype::byte());

    auto dest_layout = std::make_shared<const Layout>(Layout::from_counts(counts));
    dest_ = Vec(comm, dest_layout);
    scatter_ = std::make_unique<VecScatter>(
        VecScatter::gather_sparse(comm, *source.layout(), needed, *dest_layout));
}

void PatchGather::gather(const Vec& src, ScatterBackend backend) {
    scatter_->execute(src, dest_, backend);
}

}  // namespace nncomm::pk
